"""Alternating optimizer for joint feature selection and imputation.

The model couples, per view v: a reconstruction X^v ~ W^v (F^v + F*)^T
with row-sparse projections W^v (l2,1) and sparse view-specific factors
F^v (l1), a nonnegative near-orthogonal consensus factor F*, adaptive
k-sparse similarity graphs S^v with simplex columns, a consensus graph H
fused from the S^v through learned view weights alpha, and graph-smoothed
re-imputation of the masked entries of X^v.

One outer iteration applies, in order: W (Sylvester solve under the
iteratively reweighted l2,1 majorizer, whose diagonal D^v is taken from
the W it replaces), F^v (proximal Adam steps), F* (multiplicative update
with an orthogonality penalty), S^v, H (closed-form k-sparse simplex
columns with self-tuned quadratic coefficients), alpha (simplex QP), and
the masked entries of X^v.

Every step is guarded so the traced objective is non-increasing: the
F^v / F* steps halve their step, the S / H column updates keep the
previous column when swapping in the freshly tuned coefficient would not
pay for itself, and the imputation step falls back to the exact
constrained solve of every feature row if the fast path would increase
its subproblem. The F^v, F* and imputation guards take the change of
their subproblem in closed form from the terms their block already forms.
Guard trigger counts and the constraints, measured after every sweep, are
recorded per iteration in the trace. Checkpoints restore every array bit
for bit.

Each graph is held as (n, k) neighbour arrays: for column j, the rows
nbr[j] (ascending) and their weights w[j] (see `numkit`). Every graph
solve prices its columns with one cost form, given as a spec (factors,
terms): the half squared distances between the columns of X, from its
augmented factors (`numkit.half_sq_factors`, built once per refresh),
plus a times the weights of a graph at its neighbours for each term (a,
graph). `_costs` builds these rows 256 columns at a time into one reused
block, each block's distances one product with the halving folded in,
and the descent guard reads the old columns' costs from that same block;
the initialization builds each view's factors once and computes each
view's block once for S^v, H and xi. Every other graph term is an O(n k)
reduction. The spectral
initialization finds its c eigenpairs by Lanczos, and the imputation step
solves I + L by preconditioned conjugate gradients, each on a sparse form
with at most n (2k + 1) nonzeros built by `numkit.sym_csr`, so no n x n
array is made in a sweep. Only the spectral initialization when
c >= n - 1 makes its sparse form dense, for a full eigensolve.
`ModelState.S` and `ModelState.H` give dense read-only copies for readers
outside the optimizer. Eigensolver and solver failures and non-finite
graphs raise NumericError.
"""

from __future__ import annotations

import json
import numbers
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from climfs import numkit
from climfs.dataset import (MaskMatrix, MultiViewDataset, _round_count,
                            mean_impute)
from climfs.errors import ConfigError, NumericError
from climfs.evaluation import kmeans

# Multiplicative-update denominators never drop below this.
MU_FLOOR = 1e-12
# Relative slack of the S / H column guard, which compares two cost values.
GUARD_RTOL = 1e-12
# Adam stepsize for the F^v inner loop. Larger values make F^v chase the
# other blocks and lengthen the overall settling; smaller ones leave a
# slow F^v tail. 0.01 minimizes outer iterations on the synthetic
# families used by the tests.
FV_ADAM_LR = 0.01
# Proximal Adam steps per view in one F^v update.
FV_INNER_STEPS = 10
# Smoothing inside the reweighted l2,1 diagonal and the w_l21 term.
EPS_DV = 1e-8
# Weight of the orthogonality penalty ||F*^T F* - I||_F^2 on F*.
ORTH_RHO = 1e4


@dataclass
class FitConfig:
    """Hyperparameters and controls for `fit`.

    lam, beta weight the l2,1 and l1 penalties; k is the graph sparsity
    (neighbors per column, 1 <= k <= n-2); c the number of clusters;
    max_iter caps the sweeps, tol bounds the relative objective change
    that stops them, and seed (>= 0) seeds the initialization and the
    CLI's k-means scoring. `validate` checks types and values and, given
    the sample count n, that k <= n-2 and c <= n.
    """

    lam: float = 1.0
    beta: float = 1.0
    k: int = 5
    c: int = 2
    max_iter: int = 200
    tol: float = 1e-5
    seed: int = 0

    def validate(self, n: int | None = None) -> None:
        for f in fields(self):  # bools are ints to Python, not here
            x, whole = getattr(self, f.name), f.type in (int, "int")
            if isinstance(x, bool) or not isinstance(
                    x, numbers.Integral if whole else numbers.Real):
                raise ConfigError(f"{f.name} must be an integer" if whole
                                  else f"{f.name} must be a real number")
        if not (0 < self.lam < np.inf and 0 < self.beta < np.inf):
            raise ConfigError("lam and beta must be positive and finite")
        if self.k < 1 or self.c < 1:
            raise ConfigError("k and c must be positive integers")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.tol > 0:
            raise ConfigError("tol must be positive (inf allowed)")
        if n is not None and self.k > n - 2:
            raise ConfigError(f"k={self.k} too large for n={n} (k <= n-2)")
        if n is not None and self.c > n:
            raise ConfigError(f"c={self.c} too large for n={n} (c <= n)")


@dataclass(frozen=True)
class Components:
    """Feature toggles selecting which coupled terms are active.

    The full model keeps everything on. Reduced variants switch off
    adaptive imputation (masked entries stay mean-imputed), the consensus
    cluster-structure regularizer on F*, or graph learning (S, H, alpha
    frozen at initialization with their objective terms dropped).
    """

    adaptive_imputation: bool = True
    cluster_structure: bool = True
    graph_learning: bool = True


FULL_MODEL = Components()


@dataclass
class ModelState:
    """All optimization variables, with the shapes `_layout` gives; a list
    field holds one array per view. Arrays follow the (features, samples)
    column-sample convention of `climfs.dataset`. Each graph is a pair of
    (n, k) arrays: row j of `*_nbr` lists the rows of graph column j (the
    neighbours of sample j) in ascending order, and row j of `*_w` their
    weights."""

    Xhat: list[np.ndarray]          # imputed data
    W: list[np.ndarray]             # projections
    Fv: list[np.ndarray]            # view-specific factors
    Fstar: np.ndarray               # consensus factor, >= 0
    S_nbr: list[np.ndarray]         # view graph neighbours
    S_w: list[np.ndarray]           # view graph weights, simplex
    H_nbr: np.ndarray               # consensus graph neighbours
    H_w: np.ndarray                 # consensus graph weights
    alpha: np.ndarray               # view weights on the simplex
    adam_m: list[np.ndarray]        # Adam first moments of Fv
    adam_v: list[np.ndarray]        # Adam second moments of Fv
    xi: list[np.ndarray]            # per-column S quadratic offsets
    gamma: np.ndarray               # per-column H quadratic weights
    sweeps: int = 0                 # completed sweeps; numbers trace rows

    @property
    def n_views(self) -> int:
        return len(self.Xhat)

    @property
    def n_samples(self) -> int:
        return self.Fstar.shape[0]

    @property
    def S(self) -> list[np.ndarray]:
        """Dense read-only copies of the view graphs, made on each access."""
        return [_dense(nbr, w) for nbr, w in zip(self.S_nbr, self.S_w)]

    @property
    def H(self) -> np.ndarray:
        """Dense read-only copy of the consensus graph, made on each access."""
        return _dense(self.H_nbr, self.H_w)


def _dense(nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    G = numkit.densify(nbr, w)
    G.flags.writeable = False
    return G


@dataclass
class FitTrace:
    """Per-iteration log of the optimization."""

    rows: list[dict] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    message: str = ""

    def objectives(self) -> np.ndarray:
        return np.array([r["objective"] for r in self.rows])

    def to_csv(self, path: str | Path) -> None:
        if not self.rows:
            raise ValueError("empty trace")
        keys = list(self.rows[0].keys())
        lines = [",".join(keys)]
        for r in self.rows:
            lines.append(",".join(
                f"{r[k]:.17g}" if isinstance(r[k], float) else str(r[k])
                for k in keys))
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class SelectionResult:
    """Feature ranking per view plus the indices kept at a given ratio."""

    scores: list[np.ndarray]     # per view, row norms of W
    rankings: list[np.ndarray]   # per view, feature indices best-first
    selected: list[np.ndarray]   # per view, kept indices in ascending order
    ratio: float


# ----------------------------------------------------------------- helpers


def _row_sums(P: np.ndarray) -> np.ndarray:
    """Sums of the rows of P, left to right: the order in which a sum over
    a dense graph column adds its nonzeros when the neighbours ascend."""
    total = np.zeros(P.shape[0])
    for t in range(P.shape[1]):
        total += P[:, t]
    return total


def _costs(factors: tuple | None, terms: list[tuple], cols: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """Cost rows of the graph columns `cols`, written to `out` (row r
    prices every sample as a neighbour of column cols[r]): the half squared
    distances of `numkit.half_sq_dists` on `factors` (None: `out` holds
    them already), plus a * A[:, cols].T at the neighbours of those columns
    for each term (a, nbr, w) of a graph A."""
    if factors is not None:
        numkit.half_sq_dists(factors, cols, out)
    for a, nbr, w in terms:
        at = nbr[cols] + np.arange(cols.size)[:, None] * out.shape[1]
        np.add.at(out.reshape(-1), at.ravel(), (a * w[cols]).ravel())
    return out


def _solve(Q: np.ndarray, cols: np.ndarray, k: int, old: tuple | None = None,
           offset: float = 0.0) -> tuple:
    """The columns `cols` of a k-sparse simplex graph from their cost rows
    Q: `numkit.ksparse_simplex_columns` gives each its closed-form weights
    and half-gap, stored as the coefficient half-gap - offset. With `old` =
    (nbr, w, coef) of the whole graph, a column keeps its old neighbours,
    weights and coefficient where q.s + (coef + offset) ||s||^2 would
    increase beyond the slack. Returns the neighbours (ascending per
    column), weights, coefficients, and skipped and perturbed counts."""
    at, skipped = np.arange(cols.size)[:, None], 0
    if old is not None:  # before the kernel overwrites Q[r, cols[r]]
        o_nbr, o_w, o_coef = (a[cols] for a in old)
        f_old = _row_sums(Q[at, o_nbr] * o_w) \
            + (o_coef + offset) * _row_sums(o_w * o_w)
    b_nbr, b_w, half, pert = numkit.ksparse_simplex_columns(Q, cols, k)
    b_coef = half - offset
    if old is not None:
        f_new = np.einsum("jt,jt->j", Q[at, b_nbr], b_w) \
            + half * np.einsum("jt,jt->j", b_w, b_w)
        skip = f_new > f_old + GUARD_RTOL * np.maximum(1.0, np.abs(f_old))
        b_nbr[skip], b_w[skip], b_coef[skip] = \
            o_nbr[skip], o_w[skip], o_coef[skip]
        skipped = int(skip.sum())
    order = np.argsort(b_nbr, axis=1)
    return b_nbr[at, order], b_w[at, order], b_coef, skipped, int(pert.sum())


def _refresh(spec: tuple, n: int, k: int, old: tuple | None = None,
             offset: float = 0.0) -> tuple:
    """`_solve` on every column of a graph, COLUMN_BLOCK columns at a time,
    from the cost rows `_costs(*spec, cols, out)` writes to one reused
    block buffer; returns the whole graph's arrays and the counts."""
    nbr, w, coef = np.empty((n, k), np.intp), np.empty((n, k)), np.empty(n)
    skipped = perturbed = 0
    buf = np.empty((min(numkit.COLUMN_BLOCK, n), n))
    for j0 in range(0, n, numkit.COLUMN_BLOCK):
        cols = np.arange(j0, min(j0 + numkit.COLUMN_BLOCK, n))
        nbr[cols], w[cols], coef[cols], skip, pert = _solve(
            _costs(*spec, cols, buf[:cols.size]), cols, k, old, offset)
        skipped, perturbed = skipped + skip, perturbed + pert
    return nbr, w, coef, skipped, perturbed


def _positive_part(A: np.ndarray) -> np.ndarray:
    return (np.abs(A) + A) / 2.0


def _negative_part(A: np.ndarray) -> np.ndarray:
    return (np.abs(A) - A) / 2.0


# ------------------------------------------------------------------- init


def _spectral_partition(nbr: np.ndarray, w: np.ndarray, c: int,
                        seed: int) -> np.ndarray:
    """Cluster samples from the consensus graph (Ng, Jordan & Weiss 2002):
    the eigenvectors of the c smallest eigenvalues of the
    symmetric-normalized Laplacian I - N of its symmetrized form (whose
    diagonal is zero), rows normalized, then seeded k-means on the rows.
    Those are the c largest eigenpairs of N = D^-1/2 ((A + A^T) / 2)
    D^-1/2, one `numkit.sym_csr` matrix with at most 2k nonzeros per row:
    implicitly restarted Lanczos (ARPACK's `eigsh`) finds them from O(n k)
    sparse products, started from a fixed pseudo-random vector so runs are
    byte-for-byte repeatable. ARPACK cannot ask for c >= n - 1 pairs; those
    take the last c of every eigenpair of the same N, made dense. A
    non-finite graph or an eigensolver failure is a NumericError."""
    if not np.isfinite(w).all():
        raise NumericError("non-finite consensus graph at initialization")
    n = nbr.shape[0]
    dinv = 1.0 / np.sqrt(np.maximum(numkit.sym_degrees(nbr, w), 1e-30))
    # entry (i, j) adds A_ij / 2 and A_ji / 2, each scaled by the one
    # product dinv_i dinv_j, so N is exactly symmetric
    N = numkit.sym_csr(nbr, 0.5 * w * (dinv[nbr] * dinv[:, None]))
    # imported here: `import climfs` leaves scipy out
    from scipy.sparse.linalg import ArpackError, eigsh
    try:
        if c < n - 1:
            emb = eigsh(N, k=c, which="LA",
                        v0=np.random.default_rng(0).standard_normal(n))[1]
        else:
            emb = np.linalg.eigh(N.toarray())[1]
    except (ArpackError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"spectral initialization failed: {exc}") from exc
    emb = emb[:, ::-1][:, :c]  # N's largest first: the Laplacian's order
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms == 0.0, 1.0, norms)
    return kmeans(emb, c, seed=seed)


def init_state(ds: MultiViewDataset, masks: MaskMatrix, cfg: FitConfig,
               components: Components = FULL_MODEL) -> ModelState:
    """Deterministic initialization.

    Masked entries are mean-imputed; alpha is uniform; W is all-ones (so
    the first Sylvester solve sees a uniform row weighting); S^v and H are
    k-sparse simplex graphs built from the closed form on (mean-imputed)
    half squared distances, H on their mean over the views; F* is a
    binary one-hot membership from spectral clustering of the initial H;
    F^v starts at zero. The graphs are built from nothing, so their
    columns are set without the descent guard. One pass over column
    blocks computes each view's distance block once and solves from it the
    block's H, S^v and, with graph learning, xi columns: a column's xi cost
    reads only that column of H and of each S^m. gamma follows from F*.
    """
    cfg.validate(ds.n_samples)
    masks.check_against(ds)
    n, V, k = ds.n_samples, ds.n_views, cfg.k

    Xhat = [mean_impute(v, m) for v, m in zip(ds.views, masks.masks)]

    def zeros(*shape):
        return [np.zeros(shape) for _ in range(V)]

    # graph 0 is H, graph v + 1 is S^v
    nbrs = [np.empty((n, k), np.intp) for _ in range(V + 1)]
    ws = [np.empty((n, k)) for _ in range(V + 1)]
    state = ModelState(Xhat=Xhat, W=[np.ones((d, cfg.c)) for d in ds.dims],
                       Fv=zeros(n, cfg.c), Fstar=np.zeros((n, cfg.c)),
                       S_nbr=nbrs[1:], S_w=ws[1:], H_nbr=nbrs[0], H_w=ws[0],
                       alpha=np.full(V, 1.0 / V), adam_m=zeros(n, cfg.c),
                       adam_v=zeros(n, cfg.c), xi=zeros(n), gamma=np.zeros(n))
    # each view's factors, once; the xi terms read the graphs filled below
    specs = [_q_spec(state, v) for v in range(V)]
    buf = np.empty((V, min(numkit.COLUMN_BLOCK, n), n))
    for j0 in range(0, n, numkit.COLUMN_BLOCK):
        cols = np.arange(j0, min(j0 + numkit.COLUMN_BLOCK, n))
        D = buf[:, :cols.size]  # the views' half distances
        for v, (factors, _) in enumerate(specs):
            numkit.half_sq_dists(factors, cols, D[v])
        # their mean, summed in view order and freed once H is solved
        nbrs[0][cols], ws[0][cols] = _solve(D.sum(axis=0) / V, cols, k)[:2]
        for v in range(V):  # the kernel writes only D[v][r, cols[r]]
            nbrs[v + 1][cols], ws[v + 1][cols] = _solve(D[v], cols, k)[:2]
        for v in range(V if components.graph_learning else 0):
            state.xi[v][cols] = _solve(_costs(None, specs[v][1], cols, D[v]),
                                       cols, k, offset=state.alpha[v] ** 2)[2]
    del buf, D, specs  # not held through the spectral partition and gamma

    labels = _spectral_partition(state.H_nbr, state.H_w, cfg.c, cfg.seed)
    state.Fstar[np.arange(n), labels] = 1.0
    if components.graph_learning:
        state.gamma = _refresh(_b_spec(state, components), n, k)[2]
    return state


# ------------------------------------------------------------ cost specs


def _q_spec(state: ModelState, v: int) -> tuple:
    """`_costs` spec of the S^v subproblem: entry (j, i) prices sample i as
    a neighbor of sample j,

    q_ij = ||xhat_i - xhat_j||^2 / 2 - alpha_v H_ij
           + 2 alpha_v sum_{m != v} alpha_m S^m_ij

    The cross-view factor 2 is the exact gradient of the double-sum
    coupling sum_{v,m} alpha_v alpha_m <S^v, S^m>, in which each unordered
    pair appears twice.
    """
    a, fx = state.alpha, numkit.half_sq_factors(state.Xhat[v])
    return fx, [(-a[v], state.H_nbr, state.H_w)] + [
        (2.0 * a[v] * a[m], state.S_nbr[m], state.S_w[m])
        for m in range(state.n_views) if m != v]


def _b_spec(state: ModelState, components: Components) -> tuple:
    """`_costs` spec of the H subproblem: fused-graph attraction plus, when
    the cluster-structure term is active, consensus-factor distances."""
    X = state.Fstar.T if components.cluster_structure else state.Fstar.T[:0]
    return numkit.half_sq_factors(X), [(-a, nbr, w) for a, nbr, w in zip(
        state.alpha, state.S_nbr, state.S_w)]


# ------------------------------------------------------------ sub-updates


def update_W(state: ModelState, cfg: FitConfig) -> dict:
    """Per view: solve lam * diag(D^v) W + W (F^v+F*)^T (F^v+F*) = Xhat F
    with the reweighted l2,1 diagonal D^v_ii = 1 / (2 sqrt(||W_i.||^2 +
    EPS_DV)) of the W being replaced (majorize-minimize order: the solve
    uses the diagonal of the previous iterate)."""
    for v in range(state.n_views):
        F = state.Fv[v] + state.Fstar
        W = state.W[v]
        d = 1.0 / (2.0 * np.sqrt(np.einsum("ij,ij->i", W, W) + EPS_DV))
        state.W[v] = numkit.solve_scaled_sylvester(d, cfg.lam, F.T @ F,
                                                   state.Xhat[v] @ F)
    return {}


def _first_descent(candidate, change):
    """Step halving of F^v and F*: the first candidate(theta), theta = 1,
    1/2, ..., 2^-20, whose subproblem change, change(candidate), is not
    positive, with the thetas rejected before it; (None, 21) if there is
    none."""
    for halvings in range(21):
        cand = candidate(0.5 ** halvings)
        if change(cand) <= 0.0:
            return cand, halvings
    return None, 21


def update_Fv(state: ModelState, cfg: FitConfig) -> dict:
    """`FV_INNER_STEPS` proximal Adam steps on each F^v.

    The smooth gradient is 2((F^v + F*) U - Xhat^T W) with U = W^T W; the
    Adam step gives per-coordinate effective stepsizes t_ij, and the exact
    prox of beta * l1 at those stepsizes is a soft threshold at t_ij*beta.
    Each inner step halves the step until the subproblem change of the
    candidate F' = F^v + D, <D, g + D U> + beta (|F'|_1 - |F^v|_1) with g
    the smooth gradient, is not positive; Adam moments advance once per
    inner step regardless of the accepted damping, and the step number
    follows from the sweeps.
    """
    backtracks = stalls = 0
    for v in range(state.n_views):
        W = state.W[v]
        U = W.T @ W
        J = state.Xhat[v].T @ W
        for s in range(FV_INNER_STEPS):
            F = state.Fv[v]
            g = 2.0 * ((F + state.Fstar) @ U - J)
            state.adam_m[v], state.adam_v[v], step, tvec = numkit.adam_step(
                state.adam_m[v], state.adam_v[v], g, FV_ADAM_LR,
                FV_INNER_STEPS * state.sweeps + s + 1)
            absF = np.abs(F)
            cand, rejected = _first_descent(
                lambda th: numkit.soft_threshold(F - th * step,
                                                 th * tvec * cfg.beta),
                lambda C: float(np.vdot(C - F, g + (C - F) @ U)
                                + cfg.beta * (np.abs(C) - absF).sum()))
            backtracks += rejected
            stalls += cand is None
            if cand is not None:
                state.Fv[v] = cand
    return {"fv_backtracks": backtracks, "fv_stalls": stalls}


def update_Fstar(state: ModelState, cfg: FitConfig,
                 components: Components = FULL_MODEL) -> dict:
    """Multiplicative update of the nonnegative consensus factor.

    Stationarity splits the gradient into positive and negative parts:

      F* <- F* * [sum_v (J+ + M- + F* U-) + A_H F* + 2 rho F*]
               / [sum_v (J- + M+ + F* U+) + D_H F* + 2 rho F* F*^T F*]

    with J = Xhat^T W, U = W^T W, M = F^v U, A_H F* = (H F* + H^T F*) / 2,
    D_H the degrees of (H + H^T) / 2 and rho = ORTH_RHO; the graph terms
    drop when the cluster-structure component is off. Where a full step
    would raise the subproblem value, the ratio is damped to ratio ** theta
    (a descent direction in theta), halving theta until the change of a
    candidate F* + D, <D, g + D sum_v U> + tr(D^T L_H D)
    + rho <E, E + 2 (F*^T F* - I)>, is not positive: g is the gradient
    without the orthogonality term and E the change of the Gram F*^T F*.
    """
    F = state.Fstar
    P = F.T @ F
    num = 2.0 * ORTH_RHO * F
    den = 2.0 * ORTH_RHO * (F @ P)
    g = np.zeros_like(F)
    U_sum = np.zeros_like(P)
    for v in range(state.n_views):
        W = state.W[v]
        U = W.T @ W
        J = state.Xhat[v].T @ W
        M = state.Fv[v] @ U
        num += _positive_part(J) + _negative_part(M) \
            + F @ _negative_part(U)
        den += _negative_part(J) + _positive_part(M) \
            + F @ _positive_part(U)
        g += M + F @ U - J
        U_sum += U
    g *= 2.0
    if components.cluster_structure:
        deg = numkit.sym_degrees(state.H_nbr, state.H_w)
        AF = numkit.sym_matmul(state.H_nbr, state.H_w, F)
        num += AF
        den += deg[:, None] * F
        g += 2.0 * (deg[:, None] * F - AF)

    def change(C):
        D = C - F
        E = F.T @ D + D.T @ C  # C^T C - F^T F without the cancellation
        total = np.vdot(D, g + D @ U_sum) \
            + ORTH_RHO * np.vdot(E, E + 2.0 * (P - np.eye(len(P))))
        if components.cluster_structure:
            total += numkit.laplacian_quad(D.T, state.H_nbr, state.H_w, deg)
        return float(total)

    ratio = num / np.maximum(den, MU_FLOOR)
    cand, rejected = _first_descent(lambda th: F * ratio ** th, change)
    if cand is not None:
        state.Fstar = cand
    return {"fstar_backtracks": rejected, "fstar_stalls": int(cand is None)}


def update_S(state: ModelState, cfg: FitConfig) -> dict:
    """Closed-form refresh of every S^v column (views in order, each seeing
    the graphs already refreshed this sweep).

    Column j minimizes q.s + half_gap * ||s||^2 over the k-sparse simplex,
    with the self-tuned half gap; the stored xi_vj = half_gap - alpha_v^2
    feeds the traced objective. A view's columns are solved a block at a
    time (`_refresh`); a column's swap (new column and coefficient
    together) is kept only where it does not increase the traced
    objective.
    """
    skips = perturbed = 0
    n, V = state.n_samples, state.n_views
    for v in range(V):
        (state.S_nbr[v], state.S_w[v], state.xi[v], skip, pert) = _refresh(
            _q_spec(state, v), n, cfg.k,
            (state.S_nbr[v], state.S_w[v], state.xi[v]), state.alpha[v] ** 2)
        skips, perturbed = skips + skip, perturbed + pert
    return {"s_columns": n * V, "s_guard_skips": skips,
            "s_perturbed": perturbed}


def update_H(state: ModelState, cfg: FitConfig,
             components: Components = FULL_MODEL) -> dict:
    """Closed-form refresh of all consensus graph columns, mirroring
    `update_S`, with costs from the fused view graphs (and
    consensus-factor distances when the cluster-structure term is on)."""
    n = state.n_samples
    (state.H_nbr, state.H_w, state.gamma, skips, perturbed) = _refresh(
        _b_spec(state, components), n, cfg.k,
        (state.H_nbr, state.H_w, state.gamma))
    return {"h_columns": n, "h_guard_skips": skips, "h_perturbed": perturbed}


def _graph_inner_products(state: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """Q_vm = <S^v, S^m>, once per unordered pair, and h_v = <H, S^v>."""
    V = state.n_views
    Q = np.empty((V, V))
    h = np.empty(V)
    for v in range(V):
        for m in range(v, V):
            Q[v, m] = Q[m, v] = numkit.graph_inner(
                state.S_nbr[v], state.S_w[v], state.S_nbr[m], state.S_w[m])
        h[v] = numkit.graph_inner(state.H_nbr, state.H_w, state.S_nbr[v],
                                  state.S_w[v])
    return Q, h


def update_alpha(state: ModelState, cfg: FitConfig) -> dict:
    """View weights from the simplex QP min a^T Q a + c^T a with
    Q_vm = <S^v, S^m> and c_v = -<H, S^v>, solved exactly by
    `numkit.simplex_qp` (support enumeration over the V views), so the
    step is a block minimizer and cannot raise the objective. Returns
    (Q, h) under "inner": no later block of a sweep writes a graph, so
    `fit` hands them to the end-of-sweep `objective`."""
    Q, h = _graph_inner_products(state)
    state.alpha = numkit.simplex_qp(Q, -h)
    return {"inner": (Q, h)}


def update_Xhat(state: ModelState, ds: MultiViewDataset, masks: MaskMatrix,
                components: Components = FULL_MODEL) -> dict:
    """Re-impute the masked entries of every view.

    The unconstrained minimizer of ||X - M||^2 + tr(X L X^T) is
    R = M (I + L)^{-1} with M = W (F^v + F*)^T and L the symmetrized-graph
    Laplacian of S^v (the symmetrized form is an identity with the
    pairwise smoothness term). M has rank c, so R = W Y^T with
    Y^T = (F^v + F*)^T (I + L)^{-1}: I + L is built in sparse form from the
    (n, k) graph and solved for the c factor columns at once by
    Jacobi-preconditioned conjugate gradients (`numkit.pcg`). Observed
    entries are copied back verbatim. If that fast path X' would increase
    the subproblem, that is if <X' - X, (X' + X) (I + L) - 2M> > 0, the
    masked entries are recomputed by the exact constrained solve instead.
    Without graph learning the subproblem is ||X - M||^2, whose
    constrained minimizer sets the masked entries to M: no guard needed.
    Returns the fallbacks taken and the conjugate gradient steps summed
    over the solves. A non-finite or negative weight of S^v, or a solve
    that does not converge, is a NumericError.
    """
    fallbacks = steps = 0
    for v in range(state.n_views):
        G = state.Fv[v] + state.Fstar
        M = state.W[v] @ G.T
        obs = masks.masks[v] == 1.0
        if not components.graph_learning:
            state.Xhat[v] = np.where(obs, ds.views[v], M)
            continue
        X = state.Xhat[v]
        K = numkit.identity_plus_laplacian(state.S_nbr[v], state.S_w[v])
        Yt, used = numkit.pcg(K, G.T)
        cand = np.where(obs, ds.views[v], state.W[v] @ Yt)
        if np.vdot(cand - X, (K @ (cand + X).T).T - 2.0 * M) > 0.0:
            cand, more = _constrained_impute(M, K, obs, ds.views[v], X)
            used += more
            fallbacks += 1
        steps += used
        state.Xhat[v] = cand
    return {"xhat_fallbacks": fallbacks, "cg_iters": steps}


def _constrained_impute(M: np.ndarray, K, obs: np.ndarray, Xorig: np.ndarray,
                        start: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimizer of the imputation subproblem with the observed entries
    `obs` pinned to Xorig, for K = I + L: each feature row r solves K on
    its free entries against (M - pinned K)_r there, the pinned entries'
    pull on the free ones. All d rows are one `numkit.pcg` solve, started
    from `start`; returns the imputed view and the steps taken."""
    free = (~obs).astype(float)
    B = free * (M - (K @ np.where(obs, Xorig, 0.0).T).T)
    Z, steps = numkit.pcg(K, B, free * start, free)
    return np.where(obs, Xorig, Z), steps


# -------------------------------------------------------------- objective


def objective(state: ModelState, cfg: FitConfig,
              components: Components = FULL_MODEL,
              inner: tuple | None = None) -> tuple[float, dict]:
    """Traced objective value and its additive term breakdown.

    Terms (zero when their component is off):

    * recon:        sum_v ||Xhat^v - W^v (F^v + F*)^T||_F^2
    * w_l21:        lam * sum_v sum_i (sqrt(||W^v_i.||^2 + EPS_DV) - sqrt(EPS_DV))
                    (the eps-smoothed row norms the D^v majorizer descends,
                    shifted so the term is exactly 0 at W = 0)
    * fv_l1:        beta * sum_v ||F^v||_1
    * smooth:       sum_v (1/2) sum_ij ||xhat_i - xhat_j||^2 S^v_ij
    * cross_view:   sum_v sum_m alpha_v alpha_m <S^v, S^m>
    * s_quad:       sum_v sum_j xi_vj ||S^v_.j||^2 (stored coefficients)
    * fusion:       -<H, sum_v alpha_v S^v> + sum_j gamma_j ||H_.j||^2
    * fstar_smooth: tr(F*^T L_H F*)
    * orth_penalty: ORTH_RHO ||F*^T F* - I||_F^2

    The total is the sum of all listed terms; sub-updates are guarded to
    keep it non-increasing across the alternating sweep. The graph terms
    are O(n k) reductions on the neighbour arrays: smooth and fstar_smooth
    are numkit.laplacian_quad forms, and the inner products of the graphs
    are taken once per unordered pair, unless `inner` gives them as the
    (Q, h) of `_graph_inner_products` on the current graphs.
    """
    terms = {}
    recon = 0.0
    w_l21 = 0.0
    fv_l1 = 0.0
    for v in range(state.n_views):
        R = state.Xhat[v] - state.W[v] @ (state.Fv[v] + state.Fstar).T
        recon += float(np.sum(R * R))
        w_l21 += float(np.sum(np.sqrt(
            np.einsum("ij,ij->i", state.W[v], state.W[v]) + EPS_DV)
            - np.sqrt(EPS_DV)))
        fv_l1 += float(np.abs(state.Fv[v]).sum())
    terms["recon"] = recon
    terms["w_l21"] = cfg.lam * w_l21
    terms["fv_l1"] = cfg.beta * fv_l1

    if components.graph_learning:
        Q, h = _graph_inner_products(state) if inner is None else inner
        terms["smooth"] = sum(numkit.laplacian_quad(X, nbr, w) for X, nbr, w
                              in zip(state.Xhat, state.S_nbr, state.S_w))
        terms["cross_view"] = float(state.alpha @ Q @ state.alpha)
        terms["s_quad"] = sum(float(xi_v @ _row_sums(w * w))
                              for xi_v, w in zip(state.xi, state.S_w))
        terms["fusion"] = -float(state.alpha @ h) + float(
            state.gamma @ _row_sums(state.H_w * state.H_w))
    else:
        terms["smooth"] = terms["cross_view"] = 0.0
        terms["s_quad"] = terms["fusion"] = 0.0

    if components.cluster_structure:
        terms["fstar_smooth"] = numkit.laplacian_quad(
            state.Fstar.T, state.H_nbr, state.H_w)
    else:
        terms["fstar_smooth"] = 0.0

    Gram = state.Fstar.T @ state.Fstar - np.eye(state.Fstar.shape[1])
    terms["orth_penalty"] = ORTH_RHO * float(np.sum(Gram * Gram))

    return float(sum(terms.values())), terms


# ------------------------------------------------------------- validation


def _graph_violations(nbr: np.ndarray, w: np.ndarray,
                      k: int) -> tuple[float, int]:
    """Continuous violation (|column sum - 1| and negative weights; inf for
    a non-finite weight) and the count of columns that are not k distinct
    integer neighbours in [0, n) with positive finite weights, none itself."""
    n = nbr.shape[0]
    sums = _row_sums(w)
    viol = float(np.abs(sums - 1.0).max(initial=0.0)) \
        if np.isfinite(sums).all() else np.inf
    viol = max(viol, -float(w.min(initial=0.0)))
    if nbr.shape != (n, k) or w.shape != (n, k) \
            or not np.issubdtype(nbr.dtype, np.integer):
        return viol, n
    srt = np.sort(nbr, axis=1)
    bad = ~((0.0 < w) & (w < np.inf)).all(axis=1) \
        | (srt[:, 1:] == srt[:, :-1]).any(axis=1) \
        | (srt[:, 0] < 0) | (srt[:, -1] >= n) \
        | (nbr == np.arange(n)[:, None]).any(axis=1)
    return viol, int(bad.sum())


def validate_state(state: ModelState, ds: MultiViewDataset,
                   masks: MaskMatrix, cfg: FitConfig) -> dict:
    """Constraint measurements of F*, S, H and alpha, in the order of the
    blocks that write them: continuous violations (rounding noise; inf
    when a graph, alpha or F* holds a non-finite entry) and graph columns
    that are not k distinct neighbours with positive weights (none the
    column itself), per part under "parts" and combined. Observed entries
    are compared bitwise."""
    measured = {}
    for part in ("Fstar", "S", "H", "alpha"):
        if part in ("S", "H"):
            graphs = zip(state.S_nbr, state.S_w) if part == "S" \
                else [(state.H_nbr, state.H_w)]
            found = [_graph_violations(nbr, w, cfg.k) for nbr, w in graphs]
            measured[part] = (max([0.0] + [f[0] for f in found]),
                              sum(f[1] for f in found))
            continue
        A = getattr(state, part)
        # a sum is finite exactly when every summed entry is (short of
        # overflow); alpha lies on the simplex
        total = float(A.sum())
        viol = np.inf if not np.isfinite(total) \
            else 0.0 if part == "Fstar" else abs(total - 1.0)
        measured[part] = (max(viol, -float(A.min())), 0)
    obs_exact = all(((xh == xv) | (m != 1.0)).all()
                    for xh, xv, m in zip(state.Xhat, ds.views, masks.masks))
    return {"max_violation": max([0.0] + [m[0] for m in measured.values()]),
            "nnz_bad_columns": sum(m[1] for m in measured.values()),
            "observed_bitwise_equal": obs_exact, "parts": measured}


def _checked_objective(state: ModelState, ds: MultiViewDataset,
                       masks: MaskMatrix, cfg: FitConfig,
                       components: Components, when: str,
                       inner: tuple | None = None) -> tuple:
    """Objective (given the graph inner products `inner`, if known),
    terms and `validate_state`'s per-part readings; a non-finite objective
    or a changed observed entry is a NumericError."""
    obj, terms = objective(state, cfg, components, inner)
    if not np.isfinite(obj):
        raise NumericError(f"non-finite objective {when}")
    checks = validate_state(state, ds, masks, cfg)
    if not checks["observed_bitwise_equal"]:
        raise NumericError(f"observed entries were modified {when}")
    return obj, terms, checks["parts"]


# -------------------------------------------------------------------- fit


def fit(ds: MultiViewDataset, masks: MaskMatrix, cfg: FitConfig,
        components: Components = FULL_MODEL,
        state: ModelState | None = None) -> tuple[ModelState, FitTrace]:
    """Run the alternating optimization until the relative objective change
    drops below cfg.tol or cfg.max_iter is reached.

    Pass `state` to resume from a checkpoint; the continuation is
    identical to an uninterrupted run because every update is
    deterministic given the state. A state that `check_state` rejects
    against `ds` and `cfg` is a ConfigError. The
    trace holds one row per completed iteration: objective, term
    breakdown, constraint measurements, guard counters, the seconds of
    each block (t_W ... t_Xhat, and t_check for the objective and
    constraint check) and the wall time they add up to. Rows are numbered
    by `state.sweeps`, the sweeps the state has completed, so a resumed
    trace continues the numbering of the run it resumes. Constraints are
    measured on the start state and after every sweep; a row's readings
    equal the largest of a full check after every sub-update. The first
    row's rel_change is against the start state. A non-finite objective
    or a changed observed entry raises NumericError.
    """
    cfg.validate()
    masks.check_against(ds)
    if state is None:
        state = init_state(ds, masks, cfg, components)
    else:
        check_state(state, ds.n_samples, ds.dims, cfg)

    trace = FitTrace()
    obj, _, before = _checked_objective(state, ds, masks, cfg, components,
                                        "at the start state")
    # the blocks of a sweep in order, looked up by name at call time
    blocks = [("W", lambda: update_W(state, cfg)),
              ("Fv", lambda: update_Fv(state, cfg)),
              ("Fstar", lambda: update_Fstar(state, cfg, components))]
    if components.graph_learning:
        blocks += [("S", lambda: update_S(state, cfg)),
                   ("H", lambda: update_H(state, cfg, components)),
                   ("alpha", lambda: update_alpha(state, cfg))]
    if components.adaptive_imputation:
        blocks.append(("Xhat", lambda: update_Xhat(state, ds, masks,
                                                   components)))
    counters_zero = {
        **{k: 0 for k in ("fv_backtracks", "fv_stalls", "fstar_backtracks",
                          "fstar_stalls", "s_columns", "s_guard_skips",
                          "s_perturbed", "h_columns", "h_guard_skips",
                          "h_perturbed", "xhat_fallbacks", "cg_iters")},
        **{f"t_{b}": 0.0 for b in ("W", "Fv", "Fstar", "S", "H", "alpha",
                                   "Xhat", "check")}}

    for it in range(1, cfg.max_iter + 1):
        t_iter = t_last = time.perf_counter()
        counters = dict(counters_zero)  # each key has one writing block
        for name, block in blocks:
            counters.update(block())
            t_now = time.perf_counter()
            counters[f"t_{name}"], t_last = t_now - t_last, t_now

        inner = counters.pop("inner", None)  # update_alpha's (Q, h)
        obj_new, terms, after = _checked_objective(
            state, ds, masks, cfg, components, f"after iteration {it}", inner)
        t_now = time.perf_counter()
        counters["t_check"] = t_now - t_last
        # each checked part has one writer (parts in writer order): a full
        # check after any sub-update reads the parts written so far as
        # after the sweep and the rest as before it; keep the largest
        viol = max([0.0] + [m[0] for r in (before, after) for m in r.values()])
        nnz_bad = max(sum((after if j < i else before)[p][1]
                          for j, p in enumerate(after))
                      for i in range(len(after) + 1))
        before = after
        rel = abs(obj_new - obj) / max(abs(obj), 1e-30)
        state.sweeps += 1
        trace.rows.append({"iter": state.sweeps, "objective": obj_new,
                           **terms,
                           "rel_change": rel, "max_violation": viol,
                           "nnz_bad_columns": nnz_bad, **counters,
                           "seconds": t_now - t_iter})
        trace.iterations = it
        obj = obj_new
        if rel < cfg.tol:
            trace.converged = True
            trace.message = f"relative change {rel:.3e} < tol after {it} iterations"
            break
    if not trace.converged:
        trace.message = f"max_iter={cfg.max_iter} reached"
    return state, trace


# --------------------------------------------------------------- ranking


def rank_features(state: ModelState, ratio: float) -> SelectionResult:
    """Rank features per view by the row norms of W^v (descending, ties to
    the lower index) and keep the top round(ratio * d_v), at least one.

    Warns when every score in a view ties (e.g. W^v = 0): the ranking is
    then just the index order.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    scores, rankings, selected = [], [], []
    for v, W in enumerate(state.W):
        sc = np.sqrt(np.einsum("ij,ij->i", W, W))
        if sc.max() == sc.min():
            warnings.warn(
                f"view {v}: all feature scores tie; selection is by index "
                f"order", stacklevel=2)
        order = np.argsort(-sc, kind="stable")
        cnt = max(1, _round_count(ratio * sc.shape[0]))
        scores.append(sc)
        rankings.append(order)
        selected.append(np.sort(order[:cnt]))
    return SelectionResult(scores=scores, rankings=rankings,
                           selected=selected, ratio=ratio)


# ---------------------------------------------------------- serialization


def _layout(state: ModelState, n: int, dims: list[int],
            cfg: FitConfig) -> dict[str, tuple[str, np.ndarray, tuple]]:
    """The state's layout: each checkpoint name, in `save_state`'s order,
    with the field of `state` it comes from, the array it holds and the
    shape that array needs for n samples, views of dims[v] features and
    the c and k of `cfg`. An array is named after its field, with _<v>
    appended for view v's entry of a per-view field."""
    c, k = cfg.c, cfg.k
    whole = (("Fstar", (n, c)), ("alpha", (len(dims),)), ("gamma", (n,)),
             ("H_nbr", (n, k)), ("H_w", (n, k)))
    layout = {f: (f, getattr(state, f), shape) for f, shape in whole}
    for v, d in enumerate(dims):
        per_view = (("Xhat", (d, n)), ("W", (d, c)), ("Fv", (n, c)),
                    ("xi", (n,)), ("adam_m", (n, c)), ("adam_v", (n, c)),
                    ("S_nbr", (n, k)), ("S_w", (n, k)))
        layout.update({f"{f}_{v}": (f, getattr(state, f)[v], shape)
                       for f, shape in per_view})
    return layout


def check_state(state: ModelState, n: int, dims: list[int],
                cfg: FitConfig) -> None:
    """A ConfigError naming the first field of `state` that does not fit n
    samples, views of dims[v] features and `cfg`: a per-view list without
    one entry per view, a c or k too large for n (`cfg.validate`), an array
    of `_layout` off its shape, or a graph column that `_graph_violations`
    counts as bad (so a negative or non-finite weight)."""
    for f in fields(state):
        views = getattr(state, f.name)
        if isinstance(views, list) and len(views) != len(dims):
            raise ConfigError(f"state {f.name} holds {len(views)} views, the "
                              f"dataset {len(dims)}")
    cfg.validate(n)
    layout = _layout(state, n, dims, cfg)
    for name, (f, a, shape) in layout.items():
        if np.shape(a) != shape:
            raise ConfigError(f"state {name} is shaped {np.shape(a)}, not "
                              f"{shape} (n={n} samples, c={cfg.c}, k={cfg.k})")
        if f.endswith("_w"):  # after its neighbours, in `_layout`'s order
            nbrs = name.replace("_w", "_nbr", 1)
            if _graph_violations(layout[nbrs][1], a, cfg.k)[1]:
                raise ConfigError(f"state {nbrs}/{name} holds a column not of "
                                  f"{cfg.k} distinct integer neighbours in "
                                  f"[0, {n}) with positive finite weights, "
                                  f"none the column itself")


def save_state(state: ModelState, cfg: FitConfig, components: Components,
               out_dir: str | Path) -> Path:
    """Write the full state to `out_dir`: settings in header.json and the
    arrays of `_layout` (Adam moments and each graph's (n, k) neighbour and
    weight arrays included) in one uncompressed state.npz. Every array
    reloads bit for bit, so resumed runs continue identically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "state.npz", **{name: a for name, (_, a, _) in _layout(
        state, state.n_samples, [len(x) for x in state.Xhat], cfg).items()})
    header = {"sweeps": state.sweeps, "cfg": asdict(cfg),
              "components": asdict(components)}
    (out / "header.json").write_text(json.dumps(header, indent=2,
                                                sort_keys=True) + "\n")
    return out


def load_state(path: str | Path) -> tuple[ModelState, FitConfig, Components]:
    """Reload a checkpoint written by `save_state`; the view count is the
    length of alpha. A missing checkpoint is a ConfigError, as is one with
    an entry missing or malformed: a cfg that `FitConfig` rejects,
    components that are not booleans, sweeps that is not a non-negative
    integer, the flat-index graphs or the S_<v>_nbr, S_<v>_w names of
    earlier versions, or a state that fails `check_state` against its own
    n (Fstar's rows), view sizes (Xhat's rows), c and k. Header keys not
    read here, like the `adam_t` of earlier versions, are ignored."""
    path = Path(path)
    if not (path / "header.json").is_file():
        raise ConfigError(f"no fitted state under {path}; run 'fit' first")
    try:  # JSONDecodeError is a ValueError
        header = json.loads((path / "header.json").read_text())
        with np.load(path / "state.npz") as npz:
            arr = dict(npz)
        cfg = FitConfig(**header["cfg"])
        components = Components(**header["components"])
        if not all(isinstance(on, bool) for on in asdict(components).values()):
            raise ValueError("components must be true or false")
        sweeps = header["sweeps"]
        if type(sweeps) is not int or sweeps < 0:  # a bool is no count
            raise ValueError("sweeps must be a non-negative integer")
        views = range(len(arr["alpha"]))
        state = ModelState(sweeps=sweeps, **{  # names as `_layout` gives
            f.name: [arr[f"{f.name}_{v}"] for v in views]
            if str(f.type).startswith("list") else arr[f.name]
            for f in fields(ModelState) if f.name != "sweeps"})
        check_state(state, state.n_samples, [len(x) for x in state.Xhat], cfg)
    except (ConfigError, OSError, ValueError, TypeError, KeyError, IndexError,
            zipfile.BadZipFile) as exc:  # an entry missing or malformed
        raise ConfigError(f"cannot read checkpoint {path} ({exc}); if an "
                          f"earlier version wrote it, refit it") from exc
    return state, cfg, components
