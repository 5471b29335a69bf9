"""Alternating optimizer for joint feature selection and imputation.

The model couples, per view v: a reconstruction X^v ~ W^v (F^v + F*)^T
with row-sparse projections W^v (l2,1) and sparse view-specific factors
F^v (l1), a nonnegative near-orthogonal consensus factor F*, adaptive
k-sparse similarity graphs S^v with simplex columns, a consensus graph H
fused from the S^v through learned view weights alpha, and graph-smoothed
re-imputation of the masked entries of X^v.

One outer iteration applies, in order: W (Sylvester solve under the
iteratively reweighted l2,1 majorizer), the D^v refresh, F^v (proximal
Adam steps), F* (multiplicative update with an orthogonality penalty),
S^v, H (closed-form k-sparse simplex columns with self-tuned quadratic
coefficients), alpha (simplex QP), and the masked entries of X^v.

Every step is guarded so the traced objective is non-increasing: the
F^v / F* steps backtrack, the S / H column updates keep the previous
column when swapping in the freshly tuned coefficient would not pay for
itself, and the imputation step falls back to the exact per-row
constrained solve if the fast path would increase its subproblem. Guard
trigger counts are recorded per iteration in the trace. The guards, and
the constraint suite `fit` runs after every sub-update, are always on:
no setting switches them off.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from climfs import numkit
from climfs.dataset import (CSV_FLOAT_FMT, MaskMatrix, MultiViewDataset,
                            _round_count, mean_impute)
from climfs.errors import ConfigError, NumericError

# Multiplicative-update denominators never drop below this.
MU_FLOOR = 1e-12
# Relative slack when comparing objective values in descent guards.
GUARD_RTOL = 1e-12
# Adam stepsize for the F^v inner loop. Larger values make F^v chase the
# other blocks and lengthen the overall settling; smaller ones leave a
# slow F^v tail. 0.01 minimizes outer iterations on the synthetic
# families used by the tests.
FV_ADAM_LR = 0.01


@dataclass
class FitConfig:
    """Hyperparameters and controls for `fit`.

    lam, beta weight the l2,1 and l1 penalties; k is the graph sparsity
    (neighbors per column, 1 <= k <= n-2); c the number of clusters;
    rho the orthogonality penalty on F*; eps_dv the smoothing inside the
    reweighted l2,1 diagonal. The descent guards and the constraint suite
    after each sub-update always run; they are not settings.
    """

    lam: float = 1.0
    beta: float = 1.0
    k: int = 5
    c: int = 2
    rho: float = 1e4
    eps_dv: float = 1e-8
    inner_fv_steps: int = 10
    max_iter: int = 200
    tol: float = 1e-5
    seed: int = 0

    def validate(self) -> None:
        if not (self.lam > 0 and self.beta > 0 and self.rho > 0
                and self.eps_dv > 0):
            raise ConfigError("lam, beta, rho, eps_dv must be positive")
        if self.k < 1 or self.c < 1:
            raise ConfigError("k and c must be positive integers")
        if self.inner_fv_steps < 1 or self.max_iter < 1:
            raise ConfigError("inner_fv_steps and max_iter must be >= 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive (inf allowed)")


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
    """All optimization variables; arrays follow the (features, samples)
    column-sample convention of `climfs.dataset`."""

    Xhat: list[np.ndarray]          # (d_v, n) imputed data
    W: list[np.ndarray]             # (d_v, c) projections
    Fv: list[np.ndarray]            # (n, c) view-specific factors
    Fstar: np.ndarray               # (n, c) consensus factor, >= 0
    S: list[np.ndarray]             # (n, n) view graphs, simplex columns
    H: np.ndarray                   # (n, n) consensus graph
    alpha: np.ndarray               # (V,) view weights on the simplex
    Drow: list[np.ndarray]          # (d_v,) reweighted l2,1 diagonals
    adam: list[numkit.AdamState]    # per-view Adam moments for Fv
    xi: list[np.ndarray]            # (n,) per-column S quadratic offsets
    gamma: np.ndarray               # (n,) per-column H quadratic weights

    @property
    def n_views(self) -> int:
        return len(self.Xhat)

    @property
    def n_samples(self) -> int:
        return self.Fstar.shape[0]


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


def _refresh_columns(G: np.ndarray, C: np.ndarray, k: int, coef: np.ndarray,
                     offset: float = 0.0,
                     guard: bool = False) -> tuple[int, int]:
    """Swap the closed-form k-sparse simplex solution of every column of
    the costs C into graph G and its half-gap minus `offset` into `coef`,
    in place. With `guard`, only where q.s + (coef + offset) ||s||^2 does
    not increase beyond the slack. Returns (skipped, perturbed) counts."""
    nbr, w, half, perturbed = numkit.ksparse_simplex_columns(C, k)
    cols = np.arange(C.shape[0])
    if guard:  # graph diagonals are zero, so C's diagonal adds nothing
        old = np.einsum("ij,ij->j", C, G) \
            + (coef + offset) * np.einsum("ij,ij->j", G, G)
        new = np.einsum("jt,jt->j", C[nbr, cols[:, None]], w) \
            + half * np.einsum("jt,jt->j", w, w)
        cols = cols[~(new > old + GUARD_RTOL * np.maximum(1.0, np.abs(old)))]
    G[:, cols] = 0.0
    G[nbr[cols], cols[:, None]] = w[cols]
    coef[cols] = half[cols] - offset
    return C.shape[0] - cols.size, int(perturbed.sum())


def _positive_part(A: np.ndarray) -> np.ndarray:
    return (np.abs(A) + A) / 2.0


def _negative_part(A: np.ndarray) -> np.ndarray:
    return (np.abs(A) - A) / 2.0


def _sym_affinity(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized affinity and degree vector used by the F* regularizer."""
    A = (H + H.T) / 2.0
    return A, A.sum(axis=0)


# ------------------------------------------------------------------- init


def _spectral_partition(H: np.ndarray, c: int, seed: int) -> np.ndarray:
    """Cluster samples from the consensus graph: symmetric-normalized
    Laplacian embedding followed by seeded k-means on its rows."""
    from climfs.evaluation import kmeans  # local import: avoids a cycle

    A = (H + H.T) / 2.0
    deg = A.sum(axis=0)
    dinv = 1.0 / np.sqrt(np.maximum(deg, 1e-30))
    L = np.eye(H.shape[0]) - dinv[:, None] * A * dinv[None, :]
    eigval, eigvec = np.linalg.eigh(L)
    emb = eigvec[:, :c]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    emb = emb / np.where(norms == 0.0, 1.0, norms)
    return kmeans(emb, c, seed=seed)


def init_state(ds: MultiViewDataset, masks: MaskMatrix, cfg: FitConfig,
               components: Components = FULL_MODEL) -> ModelState:
    """Deterministic initialization.

    Masked entries are mean-imputed; alpha is uniform; W is all-ones (so
    the first Sylvester solve sees a uniform row weighting); S^v and H are
    k-sparse simplex graphs built from the closed form on (mean-imputed)
    squared distances; F* is a binary one-hot membership from spectral
    clustering of the initial H; F^v starts at zero. The graphs are built
    from zero, so their columns are set without the descent guard.
    """
    cfg.validate()
    masks.check_against(ds)
    n, V = ds.n_samples, ds.n_views
    if cfg.k > n - 2:
        raise ConfigError(f"k={cfg.k} too large for n={n} (need k <= n-2)")
    if cfg.c > n:
        raise ConfigError("more clusters than samples")

    Xhat = [mean_impute(v, m) for v, m in zip(ds.views, masks.masks)]
    alpha = np.full(V, 1.0 / V)
    W = [np.ones((d, cfg.c)) for d in ds.dims]
    Drow = [1.0 / (2.0 * np.sqrt(np.einsum("ij,ij->i", w, w) + cfg.eps_dv))
            for w in W]

    dists = [numkit.sq_dists(x) for x in Xhat]
    S = [np.zeros((n, n)) for _ in range(V)]
    for Sv, d2 in zip(S, dists):
        _refresh_columns(Sv, 0.5 * d2, cfg.k, np.empty(n))
    H = np.zeros((n, n))
    _refresh_columns(H, 0.5 * np.mean(dists, axis=0), cfg.k, np.empty(n))

    labels = _spectral_partition(H, cfg.c, cfg.seed)
    Fstar = np.zeros((n, cfg.c))
    Fstar[np.arange(n), labels] = 1.0

    Fv = [np.zeros((n, cfg.c)) for _ in range(V)]
    adam = [numkit.AdamState.zeros((n, cfg.c), lr=FV_ADAM_LR)
            for _ in range(V)]

    state = ModelState(Xhat=Xhat, W=W, Fv=Fv, Fstar=Fstar, S=S, H=H,
                       alpha=alpha, Drow=Drow, adam=adam,
                       xi=[np.zeros(n) for _ in range(V)],
                       gamma=np.zeros(n))
    if components.graph_learning:
        for v in range(V):
            half = numkit.ksparse_simplex_columns(_build_q(state, v), cfg.k)[2]
            state.xi[v] = half - alpha[v] ** 2
        state.gamma = numkit.ksparse_simplex_columns(
            _build_b(state, components, cfg), cfg.k)[2]
    return state


# ------------------------------------------------------- cost-row builders


def _build_q(state: ModelState, v: int) -> np.ndarray:
    """Columnwise costs for the S^v subproblem: entry (i, j) prices sample
    i as a neighbor of sample j.

    q_ij = ||xhat_i - xhat_j||^2 / 2 - alpha_v H_ij
           + 2 alpha_v sum_{m != v} alpha_m S^m_ij

    The cross-view factor 2 is the exact gradient of the double-sum
    coupling sum_{v,m} alpha_v alpha_m <S^v, S^m>, in which each unordered
    pair appears twice.
    """
    a = state.alpha
    Q = 0.5 * numkit.sq_dists(state.Xhat[v]) - a[v] * state.H
    for m in range(state.n_views):
        if m != v:
            Q += 2.0 * a[v] * a[m] * state.S[m]
    return Q


def _build_b(state: ModelState, components: Components,
             cfg: FitConfig) -> np.ndarray:
    """Columnwise costs for the H subproblem: fused-graph attraction plus,
    when the cluster-structure term is active, consensus-factor distances."""
    P = sum(a * Sv for a, Sv in zip(state.alpha, state.S))
    B = -P
    if components.cluster_structure:
        B = B + 0.5 * numkit.sq_dists(state.Fstar.T)
    return B


# ------------------------------------------------------------ sub-updates


def update_W(state: ModelState, cfg: FitConfig) -> dict:
    """Per view: solve lam * diag(D^v) W + W (F^v+F*)^T (F^v+F*) = Xhat F,
    then refresh D^v from the new W (majorize-minimize order: the solve
    uses the diagonal of the previous iterate)."""
    for v in range(state.n_views):
        F = state.Fv[v] + state.Fstar
        G = F.T @ F
        C = state.Xhat[v] @ F
        state.W[v] = numkit.solve_scaled_sylvester(state.Drow[v], cfg.lam, G, C)
        state.Drow[v] = 1.0 / (2.0 * np.sqrt(
            np.einsum("ij,ij->i", state.W[v], state.W[v]) + cfg.eps_dv))
    return {}


def _fv_objective(Xhat: np.ndarray, W: np.ndarray, Fv: np.ndarray,
                  Fstar: np.ndarray, beta: float) -> float:
    R = Xhat - W @ (Fv + Fstar).T
    return float(np.sum(R * R) + beta * np.abs(Fv).sum())


def update_Fv(state: ModelState, cfg: FitConfig) -> dict:
    """Proximal Adam steps on each F^v.

    The smooth gradient is 2((F^v + F*) U - Xhat^T W) with U = W^T W; the
    Adam step gives per-coordinate effective stepsizes t_ij, and the exact
    prox of beta * l1 at those stepsizes is a soft threshold at t_ij*beta.
    Each inner step backtracks (halving the step) until the subproblem
    value is non-increasing; Adam moments advance once per inner step
    regardless of the accepted damping.
    """
    backtracks = 0
    stalls = 0
    for v in range(state.n_views):
        W = state.W[v]
        U = W.T @ W
        J = state.Xhat[v].T @ W
        f_cur = _fv_objective(state.Xhat[v], W, state.Fv[v], state.Fstar,
                              cfg.beta)
        for _ in range(cfg.inner_fv_steps):
            g = 2.0 * ((state.Fv[v] + state.Fstar) @ U - J)
            st, step = numkit.adam_step(state.adam[v], g)
            vhat = st.v / (1.0 - st.beta2 ** st.t)
            tvec = st.lr / (np.sqrt(vhat) + st.eps)
            theta = 1.0
            accepted = False
            while theta > 2.0 ** -21:
                cand = numkit.soft_threshold(state.Fv[v] - theta * step,
                                             theta * tvec * cfg.beta)
                f_cand = _fv_objective(state.Xhat[v], W, cand, state.Fstar,
                                       cfg.beta)
                if f_cand <= f_cur:
                    state.Fv[v] = cand
                    f_cur = f_cand
                    accepted = True
                    break
                theta /= 2.0
                backtracks += 1
            if not accepted:
                stalls += 1
    return {"fv_backtracks": backtracks, "fv_stalls": stalls}


def _fstar_objective(state: ModelState, Fstar: np.ndarray, cfg: FitConfig,
                     components: Components) -> float:
    total = 0.0
    for v in range(state.n_views):
        R = state.Xhat[v] - state.W[v] @ (state.Fv[v] + Fstar).T
        total += float(np.sum(R * R))
    if components.cluster_structure:
        A, deg = _sym_affinity(state.H)
        total += float(np.sum(deg * np.einsum("ij,ij->i", Fstar, Fstar))
                       - np.sum(Fstar * (A @ Fstar)))
    Gram = Fstar.T @ Fstar - np.eye(Fstar.shape[1])
    total += cfg.rho * float(np.sum(Gram * Gram))
    return total


def update_Fstar(state: ModelState, cfg: FitConfig,
                 components: Components = FULL_MODEL) -> dict:
    """Multiplicative update of the nonnegative consensus factor.

    Stationarity splits the gradient into positive and negative parts:

      F* <- F* * [sum_v (J+ + M- + F* U-) + A_H F* + 2 rho F*]
               / [sum_v (J- + M+ + F* U+) + D_H F* + 2 rho F* F*^T F*]

    with J = Xhat^T W, U = W^T W, M = F^v U; the graph terms drop when the
    cluster-structure component is off. If a full step would increase the
    subproblem value, the ratio is damped elementwise (ratio ** theta, a
    descent direction in theta), halving theta until non-increase.
    """
    n, c = state.Fstar.shape
    num = 2.0 * cfg.rho * state.Fstar
    den = 2.0 * cfg.rho * (state.Fstar @ (state.Fstar.T @ state.Fstar))
    for v in range(state.n_views):
        W = state.W[v]
        U = W.T @ W
        J = state.Xhat[v].T @ W
        M = state.Fv[v] @ U
        num += _positive_part(J) + _negative_part(M) \
            + state.Fstar @ _negative_part(U)
        den += _negative_part(J) + _positive_part(M) \
            + state.Fstar @ _positive_part(U)
    if components.cluster_structure:
        A, deg = _sym_affinity(state.H)
        num += A @ state.Fstar
        den += deg[:, None] * state.Fstar

    ratio = num / np.maximum(den, MU_FLOOR)
    f_cur = _fstar_objective(state, state.Fstar, cfg, components)
    theta = 1.0
    backtracks = 0
    while theta > 2.0 ** -21:
        cand = state.Fstar * ratio ** theta
        if _fstar_objective(state, cand, cfg, components) <= f_cur:
            state.Fstar = cand
            return {"fstar_backtracks": backtracks}
        theta /= 2.0
        backtracks += 1
    return {"fstar_backtracks": backtracks, "fstar_stalls": 1}


def update_S(state: ModelState, cfg: FitConfig) -> dict:
    """Closed-form refresh of every S^v column (views in order, each seeing
    the graphs already refreshed this sweep).

    Column j minimizes q.s + half_gap * ||s||^2 over the k-sparse simplex,
    with the self-tuned half gap; the stored xi_vj = half_gap - alpha_v^2
    feeds the traced objective. A view's columns are solved in one batch;
    a column's swap (new column and coefficient together) is kept only
    where it does not increase the traced objective.
    """
    skips = perturbed = 0
    for v in range(state.n_views):
        skip, pert = _refresh_columns(state.S[v], _build_q(state, v), cfg.k,
                                      state.xi[v], state.alpha[v] ** 2,
                                      guard=True)
        skips, perturbed = skips + skip, perturbed + pert
    return {"s_guard_skips": skips, "s_perturbed": perturbed}


def update_H(state: ModelState, cfg: FitConfig,
             components: Components = FULL_MODEL) -> dict:
    """Closed-form refresh of all consensus graph columns in one batch,
    mirroring `update_S`, with costs from the fused view graphs (and
    consensus-factor distances when the cluster-structure term is on)."""
    skips, perturbed = _refresh_columns(
        state.H, _build_b(state, components, cfg), cfg.k, state.gamma,
        guard=True)
    return {"h_guard_skips": skips, "h_perturbed": perturbed}


def update_alpha(state: ModelState, cfg: FitConfig) -> dict:
    """View weights from the simplex QP min a^T Q a + c^T a with
    Q_vm = <S^v, S^m> and c_v = -<H, S^v>."""
    V = state.n_views
    Q = np.empty((V, V))
    c = np.empty(V)
    for v in range(V):
        for m in range(v, V):
            Q[v, m] = Q[m, v] = float(np.sum(state.S[v] * state.S[m]))
        c[v] = -float(np.sum(state.H * state.S[v]))
    state.alpha = numkit.simplex_qp(Q, c)
    return {}


def _xhat_subobjective(X: np.ndarray, M: np.ndarray, L: np.ndarray | None) -> float:
    R = X - M
    val = float(np.sum(R * R))
    if L is not None:
        val += float(np.sum((X @ L) * X))
    return val


def update_Xhat(state: ModelState, ds: MultiViewDataset, masks: MaskMatrix,
                cfg: FitConfig, components: Components = FULL_MODEL) -> dict:
    """Re-impute the masked entries of every view.

    The unconstrained minimizer of ||X - M||^2 + tr(X L X^T) is
    R = M (I + L)^{-1} with M = W (F^v + F*)^T and L the symmetrized-graph
    Laplacian of S^v (the symmetrized form is an identity with the
    pairwise smoothness term). Observed entries are copied back verbatim.
    If that fast path would increase the subproblem value, the masked
    entries are recomputed by the exact constrained per-row solve instead.
    """
    fallbacks = 0
    for v in range(state.n_views):
        M = state.W[v] @ (state.Fv[v] + state.Fstar).T
        if components.graph_learning:
            L = numkit.laplacian(state.S[v])
            R = np.linalg.solve(np.eye(M.shape[1]) + L, M.T).T
        else:
            L = None
            R = M
        obs = masks.masks[v] == 1.0
        cand = R.copy()
        cand[obs] = ds.views[v][obs]
        f_old = _xhat_subobjective(state.Xhat[v], M, L)
        f_new = _xhat_subobjective(cand, M, L)
        if f_new > f_old + GUARD_RTOL * max(1.0, abs(f_old)):
            cand = _constrained_impute(state.Xhat[v], M, L,
                                       masks.masks[v], ds.views[v])
            fallbacks += 1
        state.Xhat[v] = cand
    return {"xhat_fallbacks": fallbacks}


def _constrained_impute(Xcur: np.ndarray, M: np.ndarray,
                        L: np.ndarray | None, mask: np.ndarray,
                        Xorig: np.ndarray) -> np.ndarray:
    """Exact minimizer of the imputation subproblem with observed entries
    pinned: independent per-row solves on the free coordinates."""
    n = M.shape[1]
    A = np.eye(n) + (L if L is not None else 0.0)
    out = Xcur.copy()
    out[mask == 1.0] = Xorig[mask == 1.0]
    for r in range(M.shape[0]):
        free = mask[r] == 0.0
        if not free.any():
            continue
        obs = ~free
        rhs = M[r, free] - out[r, obs] @ A[np.ix_(obs, free)]
        out[r, free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
    return out


# -------------------------------------------------------------- objective


def objective(state: ModelState, cfg: FitConfig,
              components: Components = FULL_MODEL) -> tuple[float, dict]:
    """Traced objective value and its additive term breakdown.

    Terms (zero when their component is off):

    * recon:        sum_v ||Xhat^v - W^v (F^v + F*)^T||_F^2
    * w_l21:        lam * sum_v sum_i (sqrt(||W^v_i.||^2 + eps_dv) - sqrt(eps_dv))
                    (the eps-smoothed row norms the D^v majorizer descends,
                    shifted so the term is exactly 0 at W = 0)
    * fv_l1:        beta * sum_v ||F^v||_1
    * smooth:       sum_v (1/2) sum_ij ||xhat_i - xhat_j||^2 S^v_ij
    * cross_view:   sum_v sum_m alpha_v alpha_m <S^v, S^m>
    * s_quad:       sum_v sum_j xi_vj ||S^v_.j||^2 (stored coefficients)
    * fusion:       -<H, sum_v alpha_v S^v> + sum_j gamma_j ||H_.j||^2
    * fstar_smooth: tr(F*^T L_H F*)
    * orth_penalty: rho ||F*^T F* - I||_F^2

    The total is the sum of all listed terms; sub-updates are guarded to
    keep it non-increasing across the alternating sweep.
    """
    terms = {}
    recon = 0.0
    w_l21 = 0.0
    fv_l1 = 0.0
    for v in range(state.n_views):
        R = state.Xhat[v] - state.W[v] @ (state.Fv[v] + state.Fstar).T
        recon += float(np.sum(R * R))
        w_l21 += float(np.sum(np.sqrt(
            np.einsum("ij,ij->i", state.W[v], state.W[v]) + cfg.eps_dv)
            - np.sqrt(cfg.eps_dv)))
        fv_l1 += float(np.abs(state.Fv[v]).sum())
    terms["recon"] = recon
    terms["w_l21"] = cfg.lam * w_l21
    terms["fv_l1"] = cfg.beta * fv_l1

    if components.graph_learning:
        smooth = 0.0
        for v in range(state.n_views):
            L = numkit.laplacian(state.S[v])
            smooth += float(np.sum((state.Xhat[v] @ L) * state.Xhat[v]))
        cross = 0.0
        for v in range(state.n_views):
            for m in range(state.n_views):
                cross += state.alpha[v] * state.alpha[m] * float(
                    np.sum(state.S[v] * state.S[m]))
        s_quad = sum(float(xi_v @ np.einsum("ij,ij->j", Sv, Sv))
                     for xi_v, Sv in zip(state.xi, state.S))
        P = sum(a * Sv for a, Sv in zip(state.alpha, state.S))
        fusion = -float(np.sum(state.H * P)) \
            + float(state.gamma @ np.einsum("ij,ij->j", state.H, state.H))
        terms["smooth"] = smooth
        terms["cross_view"] = cross
        terms["s_quad"] = s_quad
        terms["fusion"] = fusion
    else:
        terms["smooth"] = terms["cross_view"] = 0.0
        terms["s_quad"] = terms["fusion"] = 0.0

    if components.cluster_structure:
        A, deg = _sym_affinity(state.H)
        terms["fstar_smooth"] = float(
            np.sum(deg * np.einsum("ij,ij->i", state.Fstar, state.Fstar))
            - np.sum(state.Fstar * (A @ state.Fstar)))
    else:
        terms["fstar_smooth"] = 0.0

    Gram = state.Fstar.T @ state.Fstar - np.eye(state.Fstar.shape[1])
    terms["orth_penalty"] = cfg.rho * float(np.sum(Gram * Gram))

    return float(sum(terms.values())), terms


# ------------------------------------------------------------- validation


def validate_state(state: ModelState, ds: MultiViewDataset,
                   masks: MaskMatrix, cfg: FitConfig,
                   components: Components = FULL_MODEL) -> dict:
    """Constraint measurements: continuous violations (should sit at
    rounding noise; inf when a graph, alpha or F* holds a non-finite entry)
    and the count of graph columns without exactly k nonzeros.
    Observed-entry preservation is checked bitwise."""
    viol = 0.0
    nnz_bad = 0
    graphs = list(state.S) + [state.H]
    # a sum is finite exactly when every summed entry is (short of overflow)
    sums = [state.alpha.sum(), state.Fstar.sum()]
    for G in graphs:
        sums.append(G.sum(axis=0))
        viol = max(viol, float(np.abs(sums[-1] - 1.0).max()), -float(G.min()))
        nnz_bad += int(np.sum(np.count_nonzero(G, axis=0) != cfg.k))
    viol = max(viol, abs(float(sums[0]) - 1.0), -float(state.alpha.min()),
               -float(state.Fstar.min()))
    if not all(np.isfinite(x).all() for x in sums):
        viol = np.inf
    obs_exact = all(
        np.array_equal(xh[m == 1.0], xv[m == 1.0])
        for xh, xv, m in zip(state.Xhat, ds.views, masks.masks))
    return {"max_violation": viol, "nnz_bad_columns": nnz_bad,
            "observed_bitwise_equal": obs_exact}


# -------------------------------------------------------------------- fit


def fit(ds: MultiViewDataset, masks: MaskMatrix, cfg: FitConfig,
        components: Components = FULL_MODEL,
        state: ModelState | None = None) -> tuple[ModelState, FitTrace]:
    """Run the alternating optimization until the relative objective change
    drops below cfg.tol or cfg.max_iter is reached.

    Pass `state` to resume from a checkpoint; the continuation is
    identical to an uninterrupted run because every update is
    deterministic given the state. The trace holds one row per completed
    iteration: objective, term breakdown, constraint measurements, guard
    counters, and wall time. The first row's rel_change is measured
    against the initial objective. A non-finite objective, at the start
    or after any iteration, raises NumericError.
    """
    cfg.validate()
    masks.check_against(ds)
    if state is None:
        state = init_state(ds, masks, cfg, components)

    trace = FitTrace()
    obj, _ = objective(state, cfg, components)
    if not np.isfinite(obj):
        raise NumericError("non-finite objective at the start state")
    checks = validate_state(state, ds, masks, cfg, components)
    if not checks["observed_bitwise_equal"]:
        raise NumericError("observed entries corrupted at initialization")

    counters_zero = {k: 0 for k in
                     ("fv_backtracks", "fv_stalls", "fstar_backtracks",
                      "fstar_stalls", "s_guard_skips", "s_perturbed",
                      "h_guard_skips", "h_perturbed", "xhat_fallbacks")}

    for it in range(1, cfg.max_iter + 1):
        t_iter = time.perf_counter()
        counters = dict(counters_zero)
        viol = 0.0
        nnz_bad = 0

        def _absorb(result: dict) -> None:
            nonlocal viol, nnz_bad
            for key, val in result.items():
                counters[key] = counters.get(key, 0) + val
            chk = validate_state(state, ds, masks, cfg, components)
            viol = max(viol, chk["max_violation"])
            nnz_bad = max(nnz_bad, chk["nnz_bad_columns"])
            if not chk["observed_bitwise_equal"]:
                raise NumericError("observed entries were modified")

        _absorb(update_W(state, cfg))
        _absorb(update_Fv(state, cfg))
        _absorb(update_Fstar(state, cfg, components))
        if components.graph_learning:
            _absorb(update_S(state, cfg))
            _absorb(update_H(state, cfg, components))
            _absorb(update_alpha(state, cfg))
        if components.adaptive_imputation:
            _absorb(update_Xhat(state, ds, masks, cfg, components))

        obj_new, terms = objective(state, cfg, components)
        if not np.isfinite(obj_new):
            raise NumericError(f"non-finite objective after iteration {it}")
        rel = abs(obj_new - obj) / max(abs(obj), 1e-30)
        trace.rows.append({"iter": it, "objective": obj_new, **terms,
                           "rel_change": rel, "max_violation": viol,
                           "nnz_bad_columns": nnz_bad, **counters,
                           "seconds": time.perf_counter() - t_iter})
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


def save_state(state: ModelState, cfg: FitConfig, components: Components,
               out_dir: str | Path) -> Path:
    """Write the full state (optimizer variables plus Adam moments) as
    CSVs with a JSON header; 17 significant digits keep reloads
    bit-exact, so resumed runs continue identically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def put(name: str, arr: np.ndarray) -> None:
        np.savetxt(out / f"{name}.csv", np.atleast_2d(arr),
                   fmt=CSV_FLOAT_FMT, delimiter=",")

    for v in range(state.n_views):
        put(f"Xhat_{v}", state.Xhat[v])
        put(f"W_{v}", state.W[v])
        put(f"Fv_{v}", state.Fv[v])
        put(f"S_{v}", state.S[v])
        put(f"Drow_{v}", state.Drow[v])
        put(f"xi_{v}", state.xi[v])
        put(f"adam_m_{v}", state.adam[v].m)
        put(f"adam_v_{v}", state.adam[v].v)
    put("Fstar", state.Fstar)
    put("H", state.H)
    put("alpha", state.alpha)
    put("gamma", state.gamma)
    header = {"n_views": state.n_views,
              "adam_t": [a.t for a in state.adam],
              "adam_lr": [a.lr for a in state.adam],
              "cfg": asdict(cfg),
              "components": asdict(components)}
    (out / "header.json").write_text(json.dumps(header, indent=2,
                                                sort_keys=True) + "\n")
    return out


def load_state(path: str | Path) -> tuple[ModelState, FitConfig, Components]:
    """Reload a checkpoint written by `save_state`."""
    path = Path(path)
    try:
        header = json.loads((path / "header.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read checkpoint header in {path}: {exc}") from exc

    def get(name: str) -> np.ndarray:
        return np.loadtxt(path / f"{name}.csv", delimiter=",", ndmin=2)

    V = header["n_views"]
    try:
        cfg = FitConfig(**header["cfg"])
        components = Components(**header["components"])
    except TypeError as exc:  # e.g. a key of an earlier version
        raise ConfigError(f"checkpoint {path} does not fit this version "
                          f"(refit it): {exc}") from exc
    Xhat = [get(f"Xhat_{v}") for v in range(V)]
    n = Xhat[0].shape[1]
    adam = []
    for v in range(V):
        st = numkit.AdamState.zeros((n, cfg.c),
                                    lr=header["adam_lr"][v])
        st.m = get(f"adam_m_{v}")
        st.v = get(f"adam_v_{v}")
        st.t = header["adam_t"][v]
        adam.append(st)
    state = ModelState(
        Xhat=Xhat,
        W=[get(f"W_{v}") for v in range(V)],
        Fv=[get(f"Fv_{v}") for v in range(V)],
        Fstar=get("Fstar"),
        S=[get(f"S_{v}") for v in range(V)],
        H=get("H"),
        alpha=get("alpha").reshape(-1),
        Drow=[get(f"Drow_{v}").reshape(-1) for v in range(V)],
        adam=adam,
        xi=[get(f"xi_{v}").reshape(-1) for v in range(V)],
        gamma=get("gamma").reshape(-1))
    return state, cfg, components
