"""Dense numeric kernels used by the alternating optimizer.

All kernels operate on float64 numpy arrays and are pure functions except
for `adam_step`, which advances an `AdamState` in place (single-owner
mutable; everything else is safe to share across threads).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from climfs.errors import NumericError

# Floor for the spectral pencil lam*d_i + eig_j in the Sylvester solver.
PENCIL_FLOOR = 1e-12
# Absolute tolerance for symmetry checks on small Gram matrices.
SYM_TOL = 1e-10
# A simplex-QP support whose KKT solution dips further below zero than
# this is rejected; smaller dips are rounding and are clipped to 0.
ACTIVE_TOL = 1e-12
# Fixed-point (KKT) residual the simplex QP solution must reach.
QP_KKT_TOL = 1e-8
# Columns per pass of `ksparse_simplex_columns`, rows per pass of `sq_dists`:
# their temporaries stay O(n * 256).
COLUMN_BLOCK = 256
# Adam decay rates and denominator floor, the Kingma & Ba (2015) defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def solve_scaled_sylvester(d: np.ndarray, lam: float, G: np.ndarray,
                           C: np.ndarray) -> np.ndarray:
    """Solve lam * diag(d) @ W + W @ G = C for W.

    The right factor G must be symmetric positive semidefinite, so the
    system decouples in the eigenbasis of G: with G = Q diag(mu) Q^T the
    solution is W = ((C @ Q) / (lam * d[:, None] + mu[None, :])) @ Q^T.

    Parameters
    ----------
    d : (p,) array, strictly positive row scalings.
    lam : positive scalar multiplying diag(d).
    G : (c, c) symmetric PSD matrix.
    C : (p, c) right-hand side.

    Returns
    -------
    W : (p, c) array solving the equation to working precision.

    Raises
    ------
    ValueError
        On bad shapes, non-positive `d` or `lam`, or asymmetric G.
    NumericError
        If `d`, `G` or `C` holds a non-finite entry, or some
        lam * d_i + mu_j falls below ``PENCIL_FLOOR`` (singular pencil:
        the diagonal system cannot be inverted stably).
    """
    d = np.asarray(d, dtype=float)
    G = np.asarray(G, dtype=float)
    C = np.asarray(C, dtype=float)
    if d.ndim != 1 or G.ndim != 2 or C.ndim != 2:
        raise ValueError("d must be 1-D and G, C 2-D")
    p, c = C.shape
    if d.shape[0] != p or G.shape != (c, c):
        raise ValueError(f"shape mismatch: d{d.shape}, G{G.shape}, C{C.shape}")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not all(np.isfinite(a).all() for a in (d, G, C)):
        raise NumericError("non-finite entries in a Sylvester system")
    if not np.all(d > 0):
        raise ValueError("all entries of d must be strictly positive")
    gmax = max(1.0, float(np.abs(G).max(initial=0.0)))
    if float(np.abs(G - G.T).max(initial=0.0)) > SYM_TOL * gmax:
        raise ValueError("G must be symmetric")

    mu, Q = np.linalg.eigh(G)
    denom_min = lam * float(d.min()) + float(mu.min())
    if denom_min < PENCIL_FLOOR:
        raise NumericError(
            f"singular pencil: min(lam*d_i + mu_j) = {denom_min:.3e} "
            f"< {PENCIL_FLOOR:.0e}")
    Ct = C @ Q
    Wt = Ct / (lam * d[:, None] + mu[None, :])
    return Wt @ Q.T


def soft_threshold(A: np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Shrinkage sign(a) * max(|a| - tau, 0); tau >= 0 is a scalar or array."""
    if np.any(np.asarray(tau) < 0):
        raise ValueError("tau must be nonnegative")
    A = np.asarray(A, dtype=float)
    return np.sign(A) * np.maximum(np.abs(A) - tau, 0.0)


def ksparse_simplex_min(q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Minimize q.s + (half-gap) * ||s||^2 over the k-sparse probability simplex.

    Sorting q ascending (stable, so ties resolve to the lowest original
    index), the weight on the t-th smallest entry is

        s_t = (q_(k+1) - q_(t)) / (k * q_(k+1) - sum_{u<=k} q_(u)),

    zero elsewhere, which places exactly k nonzero weights as long as
    q_(k) < q_(k+1) strictly. The returned scalar is the half-gap

        xi = (k * q_(k+1) - sum_{u<=k} q_(u)) / 2,

    the self-tuned quadratic coefficient: `s` is the exact global minimizer
    of q.s + xi * ||s||^2 over the k-sparse simplex. Callers that split the
    coefficient into named parts (e.g. subtracting a squared view weight)
    handle that offset themselves.

    Raises
    ------
    NumericError
        If q_(k) == q_(k+1), exactly or at working precision: the
        neighborhood is degenerate (the formula would produce a zero
        weight among the k selected, or 0/0 when all k+1 smallest entries
        tie). Callers should perturb q and retry.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("q must be 1-D")
    n = q.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < len(q), got k={k}, len={n}")
    if not np.all(np.isfinite(q)):
        raise ValueError("q must be finite")

    order = np.argsort(q, kind="stable")
    qs = q[order]
    if not qs[k] > qs[k - 1]:
        raise NumericError(
            "degenerate neighborhood: q_(k) == q_(k+1), closed form cannot "
            "place k strictly positive weights")
    # Summing the positive differences instead of k*qs[k] - sum(qs[:k])
    # avoids the cancellation that can round the gap to exactly zero when
    # the k+1 smallest entries differ only in their last bits.
    diffs = qs[k] - qs[:k]
    gap = diffs.sum()
    if not gap > 0.0:
        raise NumericError(
            "degenerate neighborhood: k smallest entries tie with q_(k+1) "
            "at working precision")
    vals = diffs / gap
    vals /= vals.sum()  # pin the simplex sum to 1 exactly at working precision
    s = np.zeros(n)
    s[order[:k]] = vals
    return s, gap / 2.0


def ksparse_simplex_columns(C: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """`ksparse_simplex_min` on every column of the square costs C without
    its diagonal entry, bit for bit; a degenerate column is solved again
    after adding eta * position (its index in the column without the
    diagonal; eta = 1e-12 * max(1, max |q|)), so lower indices win ties.
    Returns neighbours (n, k), weights (n, k), half-gaps (n,) and the
    perturbed flags (n,); raises NumericError on non-finite costs or on a
    column still degenerate after the perturbation."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    if C.shape != (n, n) or not 1 <= k < n - 1:
        raise ValueError(f"need square C and 1 <= k < n-1, got {C.shape}, {k}")
    nbr, w = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    half, perturbed = np.empty(n), np.zeros(n, dtype=bool)
    for j0 in range(0, n, COLUMN_BLOCK):
        cols = np.arange(j0, min(j0 + COLUMN_BLOCK, n))
        Q = C[:, cols].T.copy()  # row r is column cols[r]
        Q[np.arange(cols.size), cols] = 0.0
        if not np.isfinite(Q).all():
            raise NumericError("non-finite costs in a k-sparse subproblem")
        eta = 1e-12 * np.maximum(1.0, np.abs(Q).max(axis=1))
        Q[np.arange(cols.size), cols] = np.inf  # never its own neighbour
        for retry in (False, True):
            part = np.argpartition(Q, k, axis=1)[:, :k + 1]
            vals = np.take_along_axis(Q, part, axis=1)
            order = np.argsort(vals, axis=1)  # ties share weights: any order
            qs = np.take_along_axis(vals, order, axis=1)
            # contiguous rows, so the sums round as in `ksparse_simplex_min`
            diffs = qs[:, k:] - qs[:, :k]
            gap = diffs.sum(axis=1)
            ok = (qs[:, k] > qs[:, k - 1]) & (gap > 0.0)
            done = cols[ok]
            nbr[done] = np.take_along_axis(part, order[:, :k], axis=1)[ok]
            wt = diffs[ok] / gap[ok, None]
            w[done] = wt / wt.sum(axis=1, keepdims=True)
            half[done], perturbed[done] = gap[ok] / 2.0, retry
            if ok.all():
                break
            if retry:
                raise NumericError("neighborhood degenerate when perturbed")
            cols, eta, Q = cols[~ok], eta[~ok], Q[~ok]
            Q += eta[:, None] * (np.arange(n) - (np.arange(n) > cols[:, None]))
    return nbr, w, half, perturbed


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto the probability simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.shape[0] + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def _qp_kkt_residual(Q: np.ndarray, c: np.ndarray, x: np.ndarray) -> float:
    """Fixed-point residual ||x - proj(x - grad)||_inf; zero iff optimal."""
    g = 2.0 * Q @ x + c
    return float(np.abs(x - _project_simplex(x - g)).max())


def simplex_qp(Q: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Minimize x^T Q x + c^T x over the probability simplex, exactly.

    Q must be symmetric PSD (within a small tolerance). The supports are
    tried from the largest down; on each, the equality-constrained KKT
    system is solved by least squares, whose minimum-norm solution makes
    a flat objective resolve to the symmetric point. The first
    nonnegative solution whose fixed-point residual is within
    ``QP_KKT_TOL`` is returned: for PSD Q it is a global minimizer. There
    are 2^V - 1 supports, each costing a (V+1) x (V+1) least-squares
    solve, so this is meant for a handful of views.

    Raises NumericError if Q is not PSD or no support passes.
    """
    Q = np.asarray(Q, dtype=float)
    V = Q.shape[0]
    if Q.shape != (V, V):
        raise ValueError("Q must be square")
    if c is None:
        c = np.zeros(V)
    c = np.asarray(c, dtype=float)
    if c.shape != (V,):
        raise ValueError("c must have shape (V,)")
    qmax = max(1.0, float(np.abs(Q).max(initial=0.0)))
    if float(np.abs(Q - Q.T).max(initial=0.0)) > SYM_TOL * qmax:
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if eigs[0] < -1e-8 * qmax:
        raise NumericError(f"Q is not PSD: min eigenvalue {eigs[0]:.3e}")
    for size in range(V, 0, -1):
        for support in combinations(range(V), size):
            x = _support_kkt(Q, c, np.array(support))
            if x is not None and _qp_kkt_residual(Q, c, x) <= QP_KKT_TOL:
                return x
    raise NumericError("no support of the simplex QP meets the KKT tolerance")


def _support_kkt(Q: np.ndarray, c: np.ndarray,
                 idx: np.ndarray) -> np.ndarray | None:
    """Least-squares solution of the equality-KKT system on the support
    `idx`, zero elsewhere; None if it has a negative entry."""
    m = idx.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * Q[np.ix_(idx, idx)]
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.concatenate([-c[idx], [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    xs = sol[:m]
    if xs.min() < -ACTIVE_TOL:
        return None
    x = np.zeros(Q.shape[0])
    x[idx] = np.maximum(xs, 0.0)
    ssum = x.sum()
    if ssum <= 0:
        return None
    return x / ssum


def laplacian(A: np.ndarray) -> np.ndarray:
    """Laplacian diag(colsums) - S of the symmetrized affinity
    S = (A + A^T) / 2 of a nonnegative square A; symmetric PSD. The dense
    form: `laplacian_quad` gives tr(X L X^T) without building it."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if (A < 0).any():
        raise ValueError("affinity matrix must be nonnegative")
    A = (A + A.T) / 2.0
    return np.diag(A.sum(axis=0)) - A


def sym_degrees(A: np.ndarray) -> np.ndarray:
    """Degrees of the symmetrized affinity (A + A^T) / 2: the mean of the
    row and column sums of A."""
    return (A.sum(axis=0) + A.sum(axis=1)) / 2.0


def laplacian_quad(X: np.ndarray, A: np.ndarray,
                   deg: np.ndarray | None = None) -> float:
    """tr(X L X^T) for L = laplacian(A), from reductions only:
    sum_i deg_i ||x_i||^2 - <A, X^T X> over the columns x_i of X, with
    deg = sym_degrees(A) unless given. <A, X^T X> is taken as
    sum((X A) * X), so nothing n x n is formed."""
    if deg is None:
        deg = sym_degrees(A)
    return float(deg @ np.einsum("ij,ij->j", X, X) - np.sum((X @ A) * X))


def sq_dists(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of X, with the
    rounding negatives of the Gram expansion clamped to 0. The result is
    the only n x n array made: the norms are added a row block at a
    time."""
    sq = np.einsum("ij,ij->j", X, X)
    D = X.T @ X
    D *= -2.0
    for r in range(0, D.shape[0], COLUMN_BLOCK):
        D[r:r + COLUMN_BLOCK] += sq[r:r + COLUMN_BLOCK, None] + sq[None, :]
    np.maximum(D, 0.0, out=D)
    return D


@dataclass
class AdamState:
    """First/second moment accumulators for Adam-style adaptive steps,
    shaped like the parameter stepped; `adam_step` advances them."""

    m: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.m.shape != self.v.shape:
            raise ValueError("moment buffers must share a shape")

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(state: AdamState, grad: np.ndarray, lr: float,
              t: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance the Adam moments with `grad` in place as step number t
    (1 for the first step); return the step lr * mhat / (sqrt(vhat) + eps)
    (moments bias-corrected for t steps), to subtract from the parameter,
    and the rate lr / (sqrt(vhat) + eps) it scales."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape:
        raise ValueError("gradient shape does not match the Adam state")
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    mhat = state.m / (1.0 - ADAM_BETA1 ** t)
    vhat = state.v / (1.0 - ADAM_BETA2 ** t)
    den = np.sqrt(vhat) + ADAM_EPS
    return lr * mhat / den, lr / den
