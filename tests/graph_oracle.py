"""Dense references for the k-sparse graph code; used by the tests only.

The optimizer holds each graph as (n, k) neighbour arrays and builds its
costs a column block at a time. The helpers here convert dense graphs to
that form, and keep the dense construction the blocked updates replaced:
whole n x n cost matrices (`build_q`, `build_b`), one batched column
refresh over them (`refresh_columns`), and the dense Laplacian, so the
blocked code can be checked against them bit for bit. The imputation
fallback's dense per-row Cholesky solve (`constrained_impute`) is the
reference for its batched conjugate gradient form, and the dense n x n
diagnostics sections (`neighbor_consistency`, `consensus_consistency`,
`cluster_separation`, on the whole distance matrices of
`imputed_distances`) the reference for the edge-by-edge and row-block
ones of `climfs.evaluation`. Whole half squared distance matrices stack
the COLUMN_BLOCK-aligned row blocks of `numkit.half_sq_dists`
(`whole_half_sq_dists`), so their rows equal the blocked code's bit for
bit; twice one is the squared distance matrix.
"""

from types import SimpleNamespace

import numpy as np
import scipy.linalg

from climfs import numkit
from climfs.evaluation import BOUND_TOL, _consensus_value
from climfs.model import GUARD_RTOL


def sparse(G: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(nbr, w) of a dense graph with at most k nonzeros per column, rows
    ascending; a column with fewer is padded with zero weights at the
    lowest other rows."""
    n = G.shape[0]
    nbr, w = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for j in range(n):
        rows = np.flatnonzero(G[:, j])
        assert rows.size <= k, f"column {j} has {rows.size} > {k} nonzeros"
        spare = [i for i in range(n) if i != j and i not in rows]
        rows = np.sort(np.concatenate([rows, spare[:k - rows.size]])
                           .astype(np.intp))
        nbr[j], w[j] = rows, G[rows, j]
    return nbr, w


def graph_fields(S: list[np.ndarray], H: np.ndarray, k: int) -> dict:
    """ModelState graph fields of dense view graphs S and consensus H."""
    pairs = [sparse(G, k) for G in S]
    H_nbr, H_w = sparse(H, k)
    return {"S_nbr": [p[0] for p in pairs], "S_w": [p[1] for p in pairs],
            "H_nbr": H_nbr, "H_w": H_w}


def set_graph(state, which, G: np.ndarray) -> None:
    """Replace graph `which` ("H" or a view index) of `state` by dense G,
    keeping the state's k."""
    k = state.H_nbr.shape[1]
    nbr, w = sparse(G, k)
    if which == "H":
        state.H_nbr, state.H_w = nbr, w
    else:
        state.S_nbr[which], state.S_w[which] = nbr, w


def whole_half_sq_dists(X: np.ndarray) -> np.ndarray:
    """The whole n x n `numkit.half_sq_dists` matrix of the columns of X,
    stacked from its COLUMN_BLOCK-aligned blocks of rows."""
    n, factors = X.shape[1], numkit.half_sq_factors(X)
    return np.concatenate([
        numkit.half_sq_dists(factors,
                             np.arange(r, min(r + numkit.COLUMN_BLOCK, n)))
        for r in range(0, n, numkit.COLUMN_BLOCK)])


def laplacian(A: np.ndarray) -> np.ndarray:
    """Dense Laplacian diag(colsums) - S of S = (A + A^T) / 2."""
    A = (A + A.T) / 2.0
    return np.diag(A.sum(axis=0)) - A


def sym_degrees(A: np.ndarray) -> np.ndarray:
    return (A.sum(axis=0) + A.sum(axis=1)) / 2.0


def constrained_impute(M: np.ndarray, K: np.ndarray, mask: np.ndarray,
                       Xorig: np.ndarray) -> np.ndarray:
    """Minimizer of ||X - M||^2 + tr(X L X^T) with the entries where mask
    is 1 pinned to Xorig, for the dense K = I + L: one Cholesky solve of K
    on each feature row's free entries."""
    obs = mask == 1.0
    out = Xorig.copy()
    for r in range(M.shape[0]):
        free = ~obs[r]
        if not free.any():
            continue
        # the pinned entries' pull on the free ones, via K's symmetry
        rhs = M[r, free] - (np.where(free, 0.0, out[r]) @ K)[free]
        out[r, free] = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(K[np.ix_(free, free)]), rhs)
    return out


# ------------------------------------------- dense costs and column refresh


def dense_state(state) -> SimpleNamespace:
    """Copy of the parts of a ModelState the graph updates read and write,
    with dense graphs."""
    return SimpleNamespace(
        Xhat=state.Xhat, Fstar=state.Fstar, alpha=state.alpha,
        n_views=state.n_views, n_samples=state.n_samples,
        S=[G.copy() for G in state.S], H=state.H.copy(),
        xi=[x.copy() for x in state.xi], gamma=state.gamma.copy())


def build_q(dense, v: int) -> np.ndarray:
    """Whole n x n S^v costs: q_ij = ||xhat_i - xhat_j||^2 / 2
    - alpha_v H_ij + 2 alpha_v sum_{m != v} alpha_m S^m_ij. Column j
    holds row j of the distances, as the blocked code prices column j: the
    augmented product is symmetric only up to rounding."""
    a = dense.alpha
    Q = whole_half_sq_dists(dense.Xhat[v]).T
    Q += -a[v] * dense.H
    for m in range(dense.n_views):
        if m != v:
            Q += 2.0 * a[v] * a[m] * dense.S[m]
    return Q


def build_b(dense, cluster_structure: bool = True) -> np.ndarray:
    """Whole n x n H costs: fused-graph attraction plus, with the cluster
    structure term, half squared consensus-factor distances (column j
    from row j, as in `build_q`)."""
    if cluster_structure:
        B = whole_half_sq_dists(dense.Fstar.T).T
    else:
        B = np.zeros((dense.n_samples, dense.n_samples))
    for a, G in zip(dense.alpha, dense.S):
        B += -a * G
    return B


def refresh_columns(G: np.ndarray, C: np.ndarray, k: int, coef: np.ndarray,
                    offset: float = 0.0,
                    guard: bool = False) -> tuple[int, int]:
    """Swap the k-sparse simplex solution of every column of the costs C
    into G and its half-gap minus `offset` into `coef`, in place; with
    `guard`, only where q.s + (coef + offset) ||s||^2 does not increase
    beyond the slack. Returns (skipped, perturbed) counts."""
    n = C.shape[0]
    cols = np.arange(n)
    nbr, w, half, perturbed = numkit.ksparse_simplex_columns(
        C.T.copy(), cols, k)
    if guard:  # graph diagonals are zero, so C's diagonal adds nothing
        old = np.einsum("ij,ij->j", C, G) \
            + (coef + offset) * np.einsum("ij,ij->j", G, G)
        new = np.einsum("jt,jt->j", C[nbr, cols[:, None]], w) \
            + half * np.einsum("jt,jt->j", w, w)
        cols = cols[~(new > old + GUARD_RTOL * np.maximum(1.0, np.abs(old)))]
    G[:, cols] = 0.0
    G[nbr[cols], cols[:, None]] = w[cols]
    coef[cols] = half[cols] - offset
    return n - cols.size, int(perturbed.sum())


def update_S(dense, k: int) -> tuple[int, int]:
    """The dense S^v refresh, views in order, on `dense` in place."""
    skips = perturbed = 0
    for v in range(dense.n_views):
        skip, pert = refresh_columns(dense.S[v], build_q(dense, v), k,
                                     dense.xi[v], dense.alpha[v] ** 2,
                                     guard=True)
        skips, perturbed = skips + skip, perturbed + pert
    return skips, perturbed


def update_H(dense, k: int, cluster_structure: bool = True) -> tuple[int, int]:
    """The dense H refresh on `dense` in place."""
    return refresh_columns(dense.H, build_b(dense, cluster_structure), k,
                           dense.gamma, guard=True)


def imputed_distances(state, masks) -> list[tuple]:
    """Per view: the samples with a masked entry, the column norms of the
    imputed data (1 for a zero column), and the whole m x m distance
    matrix between those samples' normalized columns (None for fewer than
    two samples)."""
    out = []
    for X, mask in zip(state.Xhat, masks.masks):
        idx = np.where((mask == 0.0).any(axis=0))[0]
        norms = np.linalg.norm(X, axis=0)
        scale = np.where(norms == 0.0, 1.0, norms)
        D = None
        if idx.size >= 2:
            D = np.sqrt(2.0 * whole_half_sq_dists(X[:, idx] / scale[idx]))
        out.append((idx, scale, D))
    return out


def neighbor_consistency(state, dists: list[tuple], rho: float) -> list[dict]:
    """The `neighbor_consistency` section of
    `evaluation.diagnostics_report` from the dense view graphs and the
    `imputed_distances` matrices: every imputed pair (j, i), j != i, with
    S^v_ji >= rho."""
    out = []
    for v, (idx, scale, D) in enumerate(dists):
        rec = {"view": v, "rho": rho, "pairs": 0, "violations": 0,
               "min_margin": None}
        if D is not None:
            C = state.W[v] @ (state.Fv[v] + state.Fstar).T
            cnorm = np.linalg.norm(C, axis=0) / scale
            S = numkit.densify(state.S_nbr[v], state.S_w[v])
            Ssub = S[np.ix_(idx, idx)]
            omega1 = 1.5 - rho + 0.5 * cnorm[idx]
            strong = Ssub >= rho
            np.fill_diagonal(strong, False)
            jj, ii = np.where(strong)     # row = neighbor, column = target
            margins = omega1[ii] - D[jj, ii]
            rec["pairs"] = int(ii.size)
            rec["violations"] = int(np.sum(margins < -BOUND_TOL))
            if ii.size:
                rec["min_margin"] = float(margins.min())
        out.append(rec)
    return out


def cross_view_pairs(masks) -> np.ndarray:
    """Boolean (n, n) matrix: samples i and j both carry missing entries,
    in views that are not the same single view for both."""
    miss = np.stack([(m == 0.0).any(axis=0) for m in masks.masks])  # (V, n)
    count = miss.sum(axis=0)
    # The one view a sample misses, or a key of its own (-1 - i) when it
    # misses several: equal keys mean the same single view, or i == j.
    key = np.where(count == 1, miss.argmax(axis=0),
                   -1 - np.arange(miss.shape[1]))
    some = count > 0
    return some[:, None] & some[None, :] & (key[:, None] != key[None, :])


def consensus_consistency(state, masks, zetas: tuple[float, ...]) -> dict:
    """`evaluation._consensus_consistency` from the dense consensus graph:
    the upper triangle of the n x n mask of cross-view pairs with
    max(H_ij, H_ji) >= zeta, and the n x n squared gaps of
    `whole_half_sq_dists`, doubled."""
    J = _consensus_value(state)
    gap2 = 2.0 * whole_half_sq_dists(state.Fstar.T)
    H = numkit.densify(state.H_nbr, state.H_w)
    Hmax = np.maximum(H, H.T)
    eligible = cross_view_pairs(masks)
    checks = []
    for zeta in zetas:
        sel = eligible & (Hmax >= zeta)   # symmetric by construction
        iu = np.triu_indices(state.n_samples, k=1)
        mask_u = sel[iu]
        bound = 2.0 * J / zeta
        viol = int(np.sum(gap2[iu][mask_u] > bound + BOUND_TOL))
        checks.append({"zeta": zeta, "pairs": int(mask_u.sum()),
                       "bound": bound, "violations": viol})
    return {"subproblem_value": J, "checks": checks}


def cluster_separation(state, dists: list[tuple]) -> list[dict]:
    """The `cluster_separation` section of `evaluation.diagnostics_report`
    over whole m x m arrays: the `np.triu_indices` pairs of each view's m
    imputed samples (`imputed_distances`), with their consensus row
    distances from one `whole_half_sq_dists` matrix, doubled."""
    out = []
    F = state.Fstar
    for v, (idx, _, D) in enumerate(dists):
        sv = np.linalg.svd(state.W[v], compute_uv=False)
        smax, smin = float(sv[0]), float(sv[-1])
        fv1 = float(np.abs(state.Fv[v]).sum())
        mu = 0.5 * smax * fv1 + 1.0
        rec = {"view": v, "sigma_max": smax, "sigma_min": smin,
               "fv_l1": fv1, "mu": mu, "imputed_samples": int(idx.size),
               "same_pairs": 0, "same_violations": 0, "cross_pairs": 0,
               "premise_pairs": 0, "cross_violations": 0,
               "premise_status": "no imputed pairs"}
        if D is not None:
            rows = F[idx]
            _, row_id = np.unique(rows, axis=0, return_inverse=True)
            delta = np.sqrt(2.0 * whole_half_sq_dists(rows.T))
            iu = np.triu_indices(idx.size, k=1)
            same_u = row_id[iu[0]] == row_id[iu[1]]
            dist_u = D[iu]
            delta_u = delta[iu]
            rec["same_pairs"] = int(same_u.sum())
            rec["same_violations"] = int(
                np.sum(dist_u[same_u] > mu + BOUND_TOL))
            cross = ~same_u
            rec["cross_pairs"] = int(cross.sum())
            premise = cross & (fv1 * (smin + smax) < smin * delta_u - 4.0)
            rec["premise_pairs"] = int(premise.sum())
            nu = 0.5 * smin * (delta_u - fv1) - 1.0
            rec["cross_violations"] = int(
                np.sum(dist_u[premise] < nu[premise] - BOUND_TOL))
            if rec["cross_pairs"] == 0:
                rec["premise_status"] = "no cross-cluster pairs"
            elif rec["premise_pairs"] == 0:
                rec["premise_status"] = "premise unmet"
            else:
                rec["premise_status"] = (
                    f"premise held for {rec['premise_pairs']}/"
                    f"{rec['cross_pairs']} cross-cluster pairs")
        out.append(rec)
    return out
