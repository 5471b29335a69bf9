"""Numeric kernels used by the alternating optimizer.

All kernels operate on float64 numpy arrays and are pure functions except
`ksparse_simplex_columns`, which overwrites the entries of its cost rows
that it leaves out; everything else is safe to share across threads.
Graph costs are half squared distances, a block of them one product of
augmented factors (`half_sq_factors`, `half_sq_dists`) with the halving
folded in, which `ksparse_simplex_columns` checks from its group minima
and tail. The k-sparse graphs are read in their (n, k) neighbour form;
see below.
"""

from __future__ import annotations

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
# Graph columns solved per pass of the model's graph updates and of its
# initialization (which holds V + 1 cost blocks, V views and their mean):
# the temporaries stay O(n * 256).
COLUMN_BLOCK = 256
# `pcg` stops a column once its residual norm is at most CG_RTOL times its
# right-hand side's, and raises after CG_MAXITER steps: on I + L of a
# k-sparse simplex graph it takes 19-25 steps at n = 150 ... 5000.
CG_RTOL = 1e-13
CG_MAXITER = 1000
# A `SymCSR` product gathers at most about PRODUCT_TERMS terms (rows of P
# times entries of K) at a time, so its temporary stays near 0.5 MB.
PRODUCT_TERMS = 1 << 16
# `lanczos_largest` accepts a Ritz pair once its residual norm is at most
# LANCZOS_RTOL times its Ritz value's magnitude (floored at eps^(2/3)), as
# ARPACK does at its default tol, and raises after LANCZOS_MAXITER cycles.
LANCZOS_RTOL = np.finfo(float).eps
LANCZOS_MAXITER = 1000
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


def ksparse_simplex_columns(Q: np.ndarray, cols: np.ndarray,
                            k: int) -> tuple[np.ndarray, ...]:
    """`ksparse_simplex_min` on the costs of graph columns `cols`, bit for
    bit: row r of Q (b x n) prices every sample as a neighbour of column
    cols[r], and its entry Q[r, cols[r]] is left out (and overwritten). A
    row's k+1 smallest costs are selected exactly, from group minima and
    then g (k+1) candidates (g <= 8). A degenerate row is solved again
    after adding eta * position (its index in the row without that entry;
    eta = 1e-12 * max(1, max |q|), for those rows only), so lower indices
    win ties. Returns neighbours (b, k), weights (b, k), half-gaps (b,) and
    perturbed flags (b,). A NaN or -inf cost, a +inf among a row's k+1
    smallest or in a degenerate row, and a row still degenerate when
    perturbed are a NumericError."""
    b, n = Q.shape
    cols = np.asarray(cols)
    if cols.shape != (b,) or not 1 <= k < n - 1:
        raise ValueError(f"need one column per cost row and 1 <= k < n-1, "
                         f"got {Q.shape}, {cols.shape}, {k}")
    nbr, w = np.empty((b, k), dtype=np.intp), np.empty((b, k))
    half, perturbed = np.empty(b), np.zeros(b, dtype=bool)
    rows = np.arange(b)
    Q[rows, cols] = np.inf  # never its own neighbour
    # the first g * size costs of a row form g chunks of `size`, and the g
    # costs at one offset of every chunk a group: the k+1 smallest costs
    # lie in the k+1 groups with the smallest minima or in the tail
    g = min(8, n // (k + 1))
    size = n // g
    tail = np.arange(g * size, n)
    for retry in (False, True):
        at = np.arange(rows.size)[:, None]
        mins = Q[:, :g * size].reshape(-1, g, size).min(axis=1)
        # min propagates NaN, so `> -inf` fails for a NaN or -inf anywhere
        if not ((mins > -np.inf).all() and (Q[:, g * size:] > -np.inf).all()):
            raise NumericError("non-finite costs in a k-sparse subproblem")
        top = np.argpartition(mins, k, axis=1)[:, None, :k + 1]
        del mins  # not held through the retry
        pos = np.hstack([(top + size * np.arange(g)[:, None]).reshape(
            rows.size, -1), np.broadcast_to(tail, (rows.size, tail.size))])
        part = pos[at, np.argpartition(Q[at, pos], k, axis=1)[:, :k + 1]]
        vals = Q[at, part]
        if not np.isfinite(vals).all():
            raise NumericError("non-finite costs in a k-sparse subproblem")
        order = np.argsort(vals, axis=1)  # ties share weights: any order
        qs = vals[at, order]
        # contiguous rows, so the sums round as in `ksparse_simplex_min`
        diffs = qs[:, k:] - qs[:, :k]
        gap = diffs.sum(axis=1)
        ok = (qs[:, k] > qs[:, k - 1]) & (gap > 0.0)
        done = rows[ok]
        nbr[done] = part[at, order[:, :k]][ok]
        wt = diffs[ok] / gap[ok, None]
        w[done] = wt / wt.sum(axis=1, keepdims=True)
        half[done], perturbed[done] = gap[ok] / 2.0, retry
        if ok.all():
            break
        if retry:
            raise NumericError("neighborhood degenerate when perturbed")
        rows, cols, Q = rows[~ok], cols[~ok], Q[~ok]
        eta = 1e-12 * np.maximum(1.0, np.abs(Q).max(
            axis=1, initial=0.0, where=np.arange(n) != cols[:, None]))
        if not np.isfinite(eta).all():  # a +inf in a degenerate row
            raise NumericError("non-finite costs in a k-sparse subproblem")
        step = np.arange(n, dtype=float) - (np.arange(n) > cols[:, None])
        Q += np.multiply(step, eta[:, None], out=step)  # one fewer temporary
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


def half_sq_factors(X: np.ndarray) -> np.ndarray:
    """The right factor R = [-X; 1; h], (d+2, n), of the columns of X
    (d, n), h = ||x||^2 / 2. With the left factor L = [X; h; 1], which
    `half_sq_dists` builds from R for the columns it prices, L[:, i] .
    R[:, j] is the half squared distance ||x_i - x_j||^2 / 2."""
    d, n = X.shape
    R = np.empty((d + 2, n))
    np.negative(X, out=R[:d])
    R[d], R[d + 1] = 1.0, 0.5 * np.einsum("ij,ij->j", X, X)
    return R


def half_sq_dists(R: np.ndarray, cols: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Half squared distances from the columns `cols` to every column, a
    row per entry of `cols`, into `out`: L[:, cols].T @ R for the
    `half_sq_factors` R, clamped at 0. The left block [X; h; 1] of `cols`
    is R's columns with their first d rows negated (exact) and the last
    two swapped. Twice a row is the squared distances, exactly."""
    L = R[:, cols]
    np.negative(L[:-2], out=L[:-2])
    L[-2:] = L[[-1, -2]]
    D = np.matmul(L.T, R, out=out)
    return np.maximum(D, 0.0, out=D)


# ------------------------------------------------------ k-sparse graphs
#
# A k-sparse graph A on n samples is held as two (n, k) arrays: column j
# of A has weight w[j, t] at row nbr[j, t], and zeros elsewhere (a row
# listed twice in one column holds the sum of its weights). The functions
# of this section read a graph in that form in O(n k) work, and every
# matrix of its symmetrized form is made from the entries `_sym_entries`
# lists, held as a `SymCSR` above n = COLUMN_BLOCK; only `densify`,
# `laplacian` and, up to n = COLUMN_BLOCK, `identity_plus_laplacian` build
# an n x n array.


def densify(nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dense (n, n) graph of the neighbour arrays (nbr, w)."""
    n = nbr.shape[0]
    at = (nbr * n + np.arange(n)[:, None]).ravel()   # flat index of (i, j)
    return np.bincount(at, w.ravel(), minlength=n * n).reshape(n, n)


def sym_degrees(nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Degrees of the symmetrized graph (A + A^T) / 2: the mean of the
    column sums (a row of w) and the row sums of A."""
    return (w.sum(axis=1) + np.bincount(nbr.ravel(), w.ravel(),
                                        minlength=nbr.shape[0])) / 2.0


def laplacian(nbr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian diag(deg) - (A + A^T) / 2 of the symmetrized graph of a
    nonnegative A, as one n x n array (exactly symmetric); symmetric PSD.
    `laplacian_quad` gives tr(X L X^T) without building it."""
    if (w < 0).any():
        raise ValueError("affinity weights must be nonnegative")
    return sym_csr(nbr, -0.5 * w, sym_degrees(nbr, w)).toarray()


def laplacian_quad(X: np.ndarray, nbr: np.ndarray, w: np.ndarray,
                   deg: np.ndarray | None = None) -> float:
    """tr(X L X^T) for L = laplacian(nbr, w), from reductions only:
    sum_i deg_i ||x_i||^2 - <A, X^T X> over the columns x_i of X, with
    deg = sym_degrees(nbr, w) unless given and <A, X^T X> =
    sum_j sum_t w[j, t] <x_nbr[j, t], x_j>."""
    if deg is None:
        deg = sym_degrees(nbr, w)
    Xt = np.ascontiguousarray(X.T)  # so Xt[nbr] gathers whole rows
    cross = np.vdot(np.einsum("jtd,jd->jt", Xt[nbr], Xt), w)
    return float(deg @ np.einsum("ij,ij->j", X, X) - cross)


def laplacian_inner(X: np.ndarray, Y: np.ndarray, nbr: np.ndarray,
                    w: np.ndarray) -> float:
    """<X, Y L> = tr(X L Y^T) for L = laplacian(nbr, w) and X, Y (d, n),
    by gathers in O(n k d): sum_i deg_i <x_i, y_i> minus half of
    sum_j sum_t w[j, t] (<x_nbr[j, t], y_j> + <x_j, y_nbr[j, t]>)."""
    # row i of XY is [x_i, y_i] and of YX [y_i, x_i], so one product of
    # XY's row a and YX's row b is <x_a, y_b> + <y_a, x_b>
    XY = np.ascontiguousarray(np.vstack((X, Y)).T)
    YX = np.ascontiguousarray(np.vstack((Y, X)).T)
    cross = np.empty(nbr.shape)
    for t, at in enumerate(nbr.T):  # one (n, 2d) gather at a time
        cross[:, t] = np.einsum("jd,jd->j", XY[at], YX)
    return float(sym_degrees(nbr, w) @ np.einsum("ij,ij->j", X, Y)
                 - np.vdot(cross, w) / 2.0)


def graph_inner(nbr_a: np.ndarray, w_a: np.ndarray, nbr_b: np.ndarray,
                w_b: np.ndarray) -> float:
    """The inner product <A, B> of two graphs: per column, the products of
    the weights whose rows match, over the k x k pairs."""
    same = nbr_a[:, :, None] == nbr_b[:, None, :]
    return float(np.einsum("jt,ju,jtu->j", w_a, w_b, same).sum())


def sym_matmul(nbr: np.ndarray, w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """(A F + A^T F) / 2 for a thin F (n, c): A F scatters w[j, t] F_j onto
    row nbr[j, t]; A^T F gathers sum_t w[j, t] F_nbr[j, t] into row j."""
    n, c = F.shape
    # one bin per entry of (A F)^T, each summing its terms in (j, t) order
    at = nbr.ravel() + n * np.arange(c)[:, None]
    terms = np.repeat(F.T, nbr.shape[1], axis=1) * w.ravel()
    AF = np.bincount(at.ravel(), terms.ravel(), minlength=c * n)
    return (AF.reshape(c, n).T + np.einsum("jt,jtc->jc", w, F[nbr])) / 2.0


def _sym_entries(nbr: np.ndarray, half: np.ndarray,
                 diag: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of the entries of the symmetric (n, n)
    matrix with half[j, t] at (nbr[j, t], j) and at (j, nbr[j, t]), plus
    `diag` on the diagonal when given: at most n (2k + 1) of them, entries
    at one place to be summed. When each column's neighbours are distinct
    and never the column itself, a place sums at most two terms, so the
    matrix is exactly symmetric."""
    n = nbr.shape[0]
    ids = np.arange(n)
    rows, cols = nbr.ravel(), np.repeat(ids, nbr.shape[1])
    data, i, j = [half.ravel()] * 2, [rows, cols], [cols, rows]
    if diag is not None:
        data, i, j = data + [diag], i + [ids], j + [ids]
    return np.concatenate(i), np.concatenate(j), np.concatenate(data)


class SymCSR:
    """A symmetric (n, n) matrix in compressed rows: row i holds the values
    data[indptr[i]:indptr[i + 1]] at the columns indices[...], ascending,
    each place once. `P @ K` is the product with a vector (n,) or the rows
    of P (m, n): per pass over a band of K's rows, one gather of P's
    columns, one product with `data` and one `np.add.reduceat` that sums
    each row's terms in column order, the bands sized to PRODUCT_TERMS.
    Every row must hold an entry."""

    __array_ufunc__ = None  # so that `ndarray @ SymCSR` calls __rmatmul__

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (indptr.size - 1,) * 2

    @property
    def nnz(self) -> int:
        return self.data.size

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        at = self._rows() == self.indices
        return np.bincount(self.indices[at], self.data[at],
                           minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows(), self.indices] = self.data
        return out

    def __rmatmul__(self, P: np.ndarray) -> np.ndarray:
        n, out = self.shape[0], np.empty(np.shape(P))
        terms = self.nnz * max(out.size // n, 1)  # of the whole product
        band = max(1, PRODUCT_TERMS * n // terms)  # K's rows per pass
        for r0 in range(0, n, band):
            at = self.indptr[r0:r0 + band + 1]
            G = np.take(P, self.indices[at[0]:at[-1]], axis=-1)
            G *= self.data[at[0]:at[-1]]
            out[..., r0:r0 + band] = np.add.reduceat(G, at[:-1] - at[0],
                                                     axis=-1)
        return out


def sym_csr(nbr: np.ndarray, half: np.ndarray,
            diag: np.ndarray | None = None) -> SymCSR:
    """The `_sym_entries` matrix as a `SymCSR`, at most n (2k + 1) entries:
    one sort of their places, then the terms at each place summed. Row i
    holds at least its own k neighbours."""
    i, j, data = _sym_entries(nbr, half, diag)
    n = nbr.shape[0]
    place = i * n + j
    order = np.argsort(place)
    place = place[order]
    first = np.flatnonzero(np.diff(place, prepend=-1))
    place = place[first]
    return SymCSR(np.searchsorted(place, n * np.arange(n + 1)), place % n,
                  np.add.reduceat(data[order], first))


def identity_plus_laplacian(nbr: np.ndarray, w: np.ndarray):
    """I + L for L = laplacian(nbr, w): up to n = COLUMN_BLOCK, where it is
    no larger than a graph cost block, one dense (n, n) array (one
    bincount of the `_sym_entries`, no temporary n x n array), and above it
    a `sym_csr` SymCSR; the entries are the same either way. It is
    symmetric positive definite, with eigenvalues in [1, 1 + 2 max
    degree], when every weight is nonnegative; a non-finite or negative
    weight is a NumericError."""
    if not (np.isfinite(w).all() and (w >= 0.0).all()):
        raise NumericError("non-finite or negative graph weight in I + L")
    half, diag = -0.5 * w, 1.0 + sym_degrees(nbr, w)
    n = nbr.shape[0]
    if n > COLUMN_BLOCK:
        return sym_csr(nbr, half, diag)
    i, j, data = _sym_entries(nbr, half, diag)
    return np.bincount(i * n + j, data, minlength=n * n).reshape(n, n)


def solve_identity_plus_laplacian(nbr: np.ndarray, w: np.ndarray,
                                  B: np.ndarray) -> tuple:
    """Solve X (I + L) = B for every row of B (m, n), L = laplacian(nbr,
    w). Returns X, the `identity_plus_laplacian` I + L (for the caller's
    products with it) and the conjugate gradient steps taken. A dense
    I + L is solved by one LU factorization (`np.linalg.solve`, which
    leaves it intact), with no step counted; a sparse one by `pcg`, whose
    NumericError it raises."""
    K = identity_plus_laplacian(nbr, w)
    if isinstance(K, np.ndarray):
        return np.linalg.solve(K, B.T).T, K, 0
    X, steps = pcg(K, B)
    return X, K, steps


def pcg(K, B: np.ndarray, X: np.ndarray | None = None,
        free: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Solve X K = B for every row of B (m, n) at once, that is K x_i = b_i
    for a symmetric positive definite K, a `SymCSR` or dense, such as
    `identity_plus_laplacian`'s, by conjugate gradients preconditioned by
    diag(K) (Jacobi). Each row takes its own step sizes and stops once
    ||r_i|| <= CG_RTOL ||b_i||; a zero row of B is solved by 0 at step 0.
    X is the start point (default 0). With a 0/1 array `free` (m, n), row
    i solves the system of K restricted to the entries where free[i] is 1;
    B and X must then be 0 elsewhere, and the solution stays 0 there. The
    right-hand sides are rows so that the vector updates of a step run
    along contiguous memory, and a step updates X, R, Z and P in place.
    Returns the solution and the steps taken; raises NumericError if some
    row has not converged after CG_MAXITER steps."""
    B = np.ascontiguousarray(B)
    dinv = 1.0 / K.diagonal()
    if free is not None:
        dinv = dinv * free
    bb = np.einsum("ij,ij->i", B, B)
    if X is None:
        X, R = np.zeros(B.shape), B.copy()
    else:
        X = np.where(bb[:, None] == 0.0, 0.0, X)
        R = B - X @ K
        if free is not None:
            R *= free
    # the rows still running are `rows` of the solution `out`; X, R, Z, P
    # and the per-row arrays hold only those
    out, rows, tol = X, np.arange(B.shape[0]), CG_RTOL * CG_RTOL * bb
    Z = dinv * R
    P, rz = Z.copy(), np.einsum("ij,ij->i", R, Z)
    for step in range(CG_MAXITER + 1):
        live = np.einsum("ij,ij->i", R, R) > tol
        if not live.all():
            if X is not out:  # out holds X's rows until rows first drop
                out[rows] = X
            if not live.any():
                return out, step
            rows, rz, tol = rows[live], rz[live], tol[live]
            # one array at a time, so that no second copy of all is held
            X = X[live]
            R = R[live]
            Z = Z[live]
            P = P[live]
            if free is not None:
                dinv = dinv[live]
                free = free[live]
        if step == CG_MAXITER:
            break
        KP = P @ K  # row i is K p_i, as K is symmetric
        if free is not None:
            KP *= free  # a product, not a masked write: several times faster
        a = (rz / np.einsum("ij,ij->i", P, KP))[:, None]
        X += np.multiply(a, P, out=Z)  # Z is free until its update below
        KP *= a
        R -= KP
        np.multiply(dinv, R, out=Z)
        rz_new = np.einsum("ij,ij->i", R, Z)
        P *= (rz_new / rz)[:, None]
        P += Z
        rz = rz_new
    raise NumericError(f"conjugate gradients did not reach a relative "
                       f"residual of {CG_RTOL:.0e} in {CG_MAXITER} steps")


# --------------------------------------------------------------- Lanczos


def _orthonormalize(W: np.ndarray, V: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Make the rows of W (b, n) orthonormal to the orthonormal rows of V
    (s, n) and to each other, in place: two classical Gram-Schmidt passes
    against V, then row by row. Returns the coefficients C (b, s) of the
    old rows on V and R (b, b) on the new ones, so old W = C V + R^T W. A
    row left with at most 1e-12 of its norm lies in the span: it becomes a
    random direction with coefficient 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    C = W @ V.T
    W -= C @ V
    C2 = W @ V.T
    W -= C2 @ V
    C += C2
    R = np.zeros((W.shape[0],) * 2)
    for r, w in enumerate(W):
        for _ in range(2 if r else 0):
            h = W[:r] @ w
            w -= h @ W[:r]
            R[:r, r] += h
        norm = np.sqrt(w @ w)
        if norm > 1e-12 * norms[r]:
            R[r, r] = norm
            w /= norm
            continue
        w[:] = rng.standard_normal(w.size)
        for _ in range(2):
            w -= (V @ w) @ V + (W[:r] @ w) @ W[:r]
        w /= np.sqrt(w @ w)
    return C, R


def lanczos_largest(K, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c largest eigenvalues of a symmetric K (n, n), descending, and
    orthonormal eigenvectors as the rows of a (c, n) array, from products
    `P @ K` only: block Lanczos with full reorthogonalization and thick
    restarts (Wu & Simon, SIAM J. Matrix Anal. Appl. 2000, in blocks).

    The block holds c vectors, so an eigenvalue that repeats up to c times
    among the wanted is found whole, and starts from fixed pseudo-random
    vectors, so runs repeat byte for byte. A cycle grows the basis a block
    at a time to p >= m = max(10 c, 20) vectors, the Rayleigh-Ritz pairs
    of its projected matrix are tested by their residual norms, and the
    restart keeps the largest c + (p - c) // 2 Ritz vectors and the next
    block. Where the basis would not fit, 2c + m > n, the eigenpairs
    come from `np.linalg.eigh` of `K.toarray()` instead. Raises
    NumericError if the c pairs have not converged (LANCZOS_RTOL) in
    LANCZOS_MAXITER cycles."""
    n = K.shape[0]
    m = max(10 * c, 20)
    if m + 2 * c > n:
        vals, vecs = np.linalg.eigh(K.toarray())
        return vals[::-1][:c], vecs[:, ::-1][:, :c].T
    rng = np.random.default_rng(0)
    # rows of V: the basis and the next block; T: its projection, whose
    # lower triangle is exact
    V, T = np.empty((m + 2 * c, n)), np.zeros((m + 2 * c, m + 2 * c))
    V[:c] = rng.standard_normal((c, n))
    _orthonormalize(V[:c], V[:0], rng)
    j = 0  # first row of the block to expand
    for _ in range(LANCZOS_MAXITER):
        while j < m:
            s = j + c
            V[s:s + c] = V[j:s] @ K
            T[j:s, :s], T[s:s + c, j:s] = _orthonormalize(V[s:s + c], V[:s],
                                                          rng)
            j = s
        theta, S = np.linalg.eigh(T[:j, :j], UPLO="L")
        theta, S = theta[::-1], S[:, ::-1]
        # Ritz pair i has residual V[j:j + c]^T (T[j:j + c, j - c:j] S_i)
        B = T[j:j + c, j - c:j] @ S[j - c:j]
        res = np.sqrt(np.einsum("ij,ij->j", B, B))[:c]
        floor = np.maximum(np.abs(theta[:c]), np.finfo(float).eps ** (2 / 3))
        if (res <= LANCZOS_RTOL * floor).all():
            return theta[:c], S[:, :c].T @ V[:j]
        k = c + (j - c) // 2
        V[:k] = S[:, :k].T @ V[:j]
        V[k:k + c] = V[j:j + c]
        T[:] = 0.0
        T[np.arange(k), np.arange(k)] = theta[:k]
        T[k:k + c, :k] = B[:, :k]
        j = k
    raise NumericError(f"Lanczos did not converge to a relative residual "
                       f"of {LANCZOS_RTOL:.0e} in {LANCZOS_MAXITER} cycles")


# ------------------------------------------------------------------ Adam


def adam_step(m: np.ndarray, v: np.ndarray, grad: np.ndarray, lr: float,
              t: int) -> tuple[np.ndarray, ...]:
    """One Adam step as step number t (1 for the first step) from the
    first and second moments m, v: returns the moments advanced with
    `grad`, the step lr * mhat / (sqrt(vhat) + eps) (moments
    bias-corrected for t steps), to subtract from the parameter, and the
    rate lr / (sqrt(vhat) + eps) it scales."""
    grad = np.asarray(grad, dtype=float)
    if not grad.shape == m.shape == v.shape:
        raise ValueError("gradient shape does not match the Adam moments")
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    den = np.sqrt(vhat) + ADAM_EPS
    return m, v, lr * mhat / den, lr / den
