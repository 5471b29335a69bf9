"""Clustering-based evaluation and structural diagnostics.

Selected features are judged by clustering the (imputed) data restricted
to them: repeated seeded k-means, accuracy under the best label matching,
and normalized mutual information. `diagnostics_report` additionally
checks two similarity-driven consistency bounds of a fitted state, with
violation counts and margins, on the (n, k) edges of its graphs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from climfs import numkit
from climfs.dataset import MaskMatrix, MultiViewDataset

# Numeric slack for the diagnostic bound checks.
BOUND_TOL = 1e-9
# Lloyd iterations per k-means run, unless the assignment settles first.
KMEANS_MAX_ITER = 300


# ---------------------------------------------------------------- k-means


def _kmeanspp_centers(X: np.ndarray, c: int,
                      rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center drawn with probability
    proportional to squared distance from the chosen set."""
    n = X.shape[0]
    centers = np.empty((c, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for t in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[t] = X[pick]
        d2 = np.minimum(d2, np.sum((X - centers[t]) ** 2, axis=1))
    return centers


def kmeans(X: np.ndarray, c: int, seed=0, return_history: bool = False):
    """Lloyd's algorithm from k-means++ centers drawn per seed, for one
    seed or for a sequence of seeds run as one batch.

    Each iteration prices the centers of every live run in one product,
    ||x||^2 - 2 C X^T + ||c||^2, assigns each point to its nearest center
    (ties to the lowest index) and moves each center to the mean of its
    points; a cluster left empty is re-seeded at the point farthest from
    its run's centers. A run leaves the batch once its assignment repeats,
    so it ends as it would alone. Temporaries are O(runs c n). Returns the
    labels, (n,) for an int seed and (runs, n) for a sequence, plus with
    `return_history` each run's per-iteration within-cluster sum of
    squares (non-increasing; a list of them for a sequence).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (samples x features)")
    n, d = X.shape
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    seeds = np.atleast_1d(seed)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ValueError("seed must be an integer or a sequence of them")
    centers = np.stack([_kmeanspp_centers(X, c, np.random.default_rng(s))
                        for s in seeds.tolist()])
    runs = seeds.size
    sq = np.einsum("ij,ij->i", X, X)
    # -1 is no cluster, so no run stops at its first assignment
    labels = np.full((runs, n), -1, dtype=np.intp)
    history = [[] for _ in range(runs)]
    live = np.arange(runs)
    for _ in range(KMEANS_MAX_ITER):
        C = centers[live].reshape(-1, d)                     # (live c, d)
        d2 = (-2.0 * C) @ X.T
        d2 += sq
        d2 += np.einsum("ij,ij->i", C, C)[:, None]
        d2 = d2.reshape(live.size, c, n)
        # the first nearest center: one pass per cluster is faster than an
        # argmin along the short strided axis
        best, new = d2[:, 0].copy(), np.zeros((live.size, n), dtype=np.intp)
        for cl in range(1, c):
            closer = d2[:, cl] < best
            new += closer * (cl - new)
            np.minimum(best, d2[:, cl], out=best)
        member = (new[:, None, :] == np.arange(c)[:, None]).astype(float)
        member = member.reshape(-1, n)                       # rows of C
        counts = member.sum(axis=1)
        C = member @ X
        C /= np.maximum(counts, 1.0)[:, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # Re-seeding an empty cluster at the farthest point leaves
            # the current assignment cost unchanged, so the WCSS history
            # stays monotone.
            C[empty] = X[best[empty // c].argmax(axis=1)]
        centers[live] = C.reshape(-1, c, d)
        if return_history:
            for r, lab in zip(live.tolist(), new):
                history[r].append(float(np.sum((X - centers[r][lab]) ** 2)))
        done = (new == labels[live]).all(axis=1)
        labels[live] = new
        live = live[~done]
        if live.size == 0:
            break
    history = [np.array(h) for h in history]
    if np.ndim(seed) == 0:
        labels, history = labels[0], history[0]
    return (labels, history) if return_history else labels


# ----------------------------------------------------------- ACC and NMI


def _contingency(pred, truth) -> np.ndarray:
    """Contingency tables of one labelling (n,) or a stack of them
    (runs, n) against `truth` (n,), as one (runs, p, t) int64 array from
    one `np.bincount`. The truth is numbered once and the whole stack
    once, so row i of every table is the same predicted label and column
    j the same true one; a label absent from a run is a zero row of its
    table."""
    pred = np.asarray(pred)
    truth = np.asarray(truth).reshape(-1)
    if pred.ndim not in (1, 2):
        raise ValueError("pred must be one labelling (n,) or a stack of "
                         "them (runs, n)")
    pred = pred.reshape(-1, pred.shape[-1])
    runs, n = pred.shape
    if n != truth.shape[0]:
        raise ValueError("label vectors differ in length")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    p, t = int(pi.max()) + 1, int(ti.max()) + 1
    cell = (np.arange(runs)[:, None] * p + pi.reshape(runs, n)) * t + ti
    return np.bincount(cell.ravel(),
                       minlength=runs * p * t).reshape(runs, p, t)


def _max_assignment(W: np.ndarray) -> np.ndarray:
    """The column assigned to each row, (runs, s), that maximizes the total
    of each square table of W (runs, s, s), every table at once: the
    Hungarian method with potentials (Kuhn 1955; Munkres 1957), in the
    shortest augmenting path form of e-maxx, O(s^3) per table. Row i is
    added to every table in one pass; a step of its path search runs on
    the tables whose path is still open. W holds integers far below 2^53,
    so every potential is exact and each table's optimum is its own."""
    runs, s, _ = W.shape
    cost = -W.astype(float)
    # column 0 is the root; match[:, j] is the row (1-based) on column j
    u, v = np.zeros((runs, s + 1)), np.zeros((runs, s + 1))
    match = np.zeros((runs, s + 1), dtype=np.intp)
    way = np.zeros((runs, s + 1), dtype=np.intp)
    every = np.arange(runs)
    for i in range(1, s + 1):
        match[:, 0] = i
        j0 = np.zeros(runs, dtype=np.intp)
        minv = np.full((runs, s + 1), np.inf)
        used = np.zeros((runs, s + 1), dtype=bool)
        open_ = every
        while open_.size:
            r, j = open_, j0[open_]
            used[r, j] = True
            i0 = match[r, j]
            cur = cost[r, i0 - 1] - u[r, i0][:, None] - v[r, 1:]
            free = ~used[r, 1:]
            better = free & (cur < minv[r, 1:])
            minv[r, 1:] = np.where(better, cur, minv[r, 1:])
            way[r, 1:] = np.where(better, j[:, None], way[r, 1:])
            gap = np.where(free, minv[r, 1:], np.inf)
            j1 = gap.argmin(axis=1)
            delta = gap[np.arange(r.size), j1][:, None]
            on = used[r]
            at, col = np.nonzero(on)
            u[r[at], match[r[at], col]] += delta[at, 0]
            v[r] -= np.where(on, delta, 0.0)
            minv[r] -= np.where(on, 0.0, delta)
            j0[r] = j1 + 1
            open_ = r[match[r, j1 + 1] != 0]
        open_ = every  # flip each table's augmenting path
        while open_.size:
            r = open_
            j1 = way[r, j0[r]]
            match[r, j0[r]] = match[r, j1]
            j0[r] = j1
            open_ = r[j1 != 0]
    cols = np.empty((runs, s), dtype=np.intp)
    cols[every[:, None], match[:, 1:] - 1] = np.arange(s)
    return cols


def clustering_accuracy(pred, truth) -> float | list[float]:
    """Fraction of samples matched under the best bijection between
    predicted and true labels, for one labelling (a float) or for each
    run of a (runs, n) stack (a list).

    Every run's table, zero-padded square, gets its own exact maximum
    matching from one batched Hungarian pass over the stack
    (`_max_assignment`). The matched counts are integers, so each run's
    optimum is exact whichever optimal matching is found.
    """
    C = _contingency(pred, truth)
    runs, p, t = C.shape
    side = max(p, t)
    pad = np.pad(C, ((0, 0), (0, side - p), (0, side - t)))
    cols = _max_assignment(pad)
    matched = np.take_along_axis(pad, cols[:, :, None], axis=2).sum(
        axis=(1, 2))
    acc = (matched / float(C[0].sum())).tolist()
    return acc[0] if np.ndim(pred) == 1 else acc


def _nmi_table(C: np.ndarray) -> float:
    """`nmi` of one (p, t) contingency table."""
    C = C.astype(float)
    n = C.sum()
    pj = C.sum(axis=1) / n
    tj = C.sum(axis=0) / n
    hp = -float(np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    ht = -float(np.sum(tj[tj > 0] * np.log(tj[tj > 0])))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    P = C / n
    mask = P > 0
    outer = pj[:, None] * tj[None, :]
    info = float(np.sum(P[mask] * np.log(P[mask] / outer[mask])))
    return float(info / np.sqrt(hp * ht))


def nmi(pred, truth) -> float | list[float]:
    """Normalized mutual information with geometric-mean normalization,
    I / sqrt(H(pred) H(truth)), natural log internally, for one labelling
    (a float) or for each run of a (runs, n) stack (a list), all from one
    `_contingency` array. A label absent from a run is a zero row of its
    table, which every `> 0` mask drops, so a run of a stack scores
    exactly as it does alone.

    Conventions for degenerate labelings: both constant -> 1.0 (identical
    trivial partitions); exactly one constant -> 0.0 (it carries no
    information about the other).
    """
    scores = [_nmi_table(C) for C in _contingency(pred, truth)]
    return scores[0] if np.ndim(pred) == 1 else scores


# ----------------------------------------------------------- selection eval


@dataclass
class EvalReport:
    """Repeated-k-means clustering quality of a feature selection."""

    acc_mean: float
    nmi_mean: float
    acc_runs: list[float]
    nmi_runs: list[float]
    runs: int
    seed: int
    feature_ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_selection(ds: MultiViewDataset, sel, c: int, runs: int = 50,
                       seed: int = 0) -> EvalReport:
    """Cluster the samples on the selected features (concatenated across
    views) `runs` times with seeds seed..seed+runs-1, all in one batched
    `kmeans` call, and report per-run and mean ACC/NMI against the
    dataset labels.

    The caller decides which data to evaluate on; passing a dataset built
    from imputed views scores the method's own imputation.
    """
    if ds.labels is None:
        raise ValueError("dataset has no labels to evaluate against")
    parts = [view[idx, :].T for view, idx in zip(ds.views, sel.selected)]
    X = np.hstack(parts)
    if X.shape[1] == 0:
        raise ValueError("selection keeps no features")
    if runs < 1:
        raise ValueError(f"need at least one run, got runs={runs}")
    labels = kmeans(X, c, seed=range(seed, seed + runs))
    acc_runs = clustering_accuracy(labels, ds.labels)
    nmi_runs = nmi(labels, ds.labels)
    return EvalReport(acc_mean=float(np.mean(acc_runs)),
                      nmi_mean=float(np.mean(nmi_runs)),
                      acc_runs=acc_runs, nmi_runs=nmi_runs, runs=runs,
                      seed=seed, feature_ratio=sel.ratio)


# -------------------------------------------------------------- diagnostics


def _neighbor_consistency(state, masks: MaskMatrix,
                          rho: float) -> list[dict]:
    """Per view, imputed samples i (with a masked entry) with a strong
    imputed neighbor j (directed weight S^v_ji >= rho) must sit within
    3/2 - rho + ||c_i||/2 of it, where c_i is the reconstruction
    W^v (F^v_i + F*_i) of sample i. Columns, c_i included, are divided by
    their norms in the imputed data (1 for a zero column), the scaling
    under which the bound is stated, and each edge's distance is taken
    from its two columns: O(n k d) work."""
    out = []
    for v, (X, mask) in enumerate(zip(state.Xhat, masks.masks)):
        imputed = (mask == 0.0).any(axis=0)
        nbr = state.S_nbr[v]
        i, t = np.nonzero((state.S_w[v] >= rho) & imputed[nbr]
                          & imputed[:, None])   # target i, edge slot t
        norms = np.linalg.norm(X, axis=0)
        scale = np.where(norms == 0.0, 1.0, norms)
        C = state.W[v] @ (state.Fv[v] + state.Fstar).T
        omega1 = 1.5 - rho + 0.5 * (np.linalg.norm(C, axis=0) / scale)[i]
        Y = np.ascontiguousarray((X / scale).T)    # a sample per row
        margins = omega1 - np.linalg.norm(Y[i] - Y[nbr[i, t]], axis=1)
        out.append({"view": v, "rho": rho, "pairs": int(i.size),
                    "violations": int(np.sum(margins < -BOUND_TOL)),
                    "min_margin": float(margins.min()) if i.size else None})
    return out


def _consensus_value(state) -> float:
    """Value of the consensus-factor subproblem (reconstruction plus the
    consensus-graph smoothness trace) at the current state. The trace is
    taken for the Laplacian of the symmetrized graph, the form under which
    it equals half the similarity-weighted sum of squared row gaps, as a
    reduction (`numkit.laplacian_quad`)."""
    total = 0.0
    for v in range(state.n_views):
        R = state.Xhat[v] - state.W[v] @ (state.Fv[v] + state.Fstar).T
        total += float(np.sum(R * R))
    return total + numkit.laplacian_quad(state.Fstar.T, state.H_nbr,
                                         state.H_w)


def _cross_view(masks: MaskMatrix, a, b) -> np.ndarray:
    """Per pair of samples a, b (broadcast index arrays): whether both
    carry missing entries, in views that are not the same single view."""
    miss = np.stack([(m == 0.0).any(axis=0) for m in masks.masks])  # (V, n)
    count = miss.sum(axis=0)
    # The one view a sample misses, or a key of its own (-1 - i) when it
    # misses several: equal keys mean the same single view, or a == b.
    key = np.where(count == 1, miss.argmax(axis=0),
                   -1 - np.arange(miss.shape[1]))
    return (count[a] > 0) & (count[b] > 0) & (key[a] != key[b])


def _consensus_consistency(state, masks: MaskMatrix,
                           zetas: tuple[float, ...]) -> dict:
    """Consensus-factor rows of strongly fused cross-view pairs must obey
    ||F*_i - F*_j||^2 <= 2 J / zeta, J the consensus subproblem value; a
    pair qualifies, once, when an edge of H (H_ij or H_ji) reaches zeta.
    Each gap is taken from its two rows."""
    J = _consensus_value(state)
    n, nbr = state.n_samples, state.H_nbr
    F = np.ascontiguousarray(state.Fstar)   # so F[i] gathers whole rows
    col = np.arange(n)[:, None]
    cross = _cross_view(masks, nbr, col)                  # per edge of H
    pair = (np.minimum(nbr, col) * n + np.maximum(nbr, col))[cross]
    w = state.H_w[cross]
    checks = []
    for zeta in zetas:
        i, j = np.divmod(np.unique(pair[w >= zeta]), n)
        gap2 = np.sum((F[i] - F[j]) ** 2, axis=1)
        bound = 2.0 * J / zeta
        checks.append({"zeta": zeta, "pairs": int(i.size), "bound": bound,
                       "violations": int(np.sum(gap2 > bound + BOUND_TOL))})
    return {"subproblem_value": J, "checks": checks}


def diagnostics_report(state, masks: MaskMatrix, rho: float = 0.1,
                       zetas: tuple[float, ...] = (0.1, 0.2)) -> dict:
    """Structural diagnostics of a fitted state, JSON-ready.

    Sections: `neighbor_consistency` (strong within-view similarity keeps
    imputed columns close) and `consensus_consistency` (strong consensus
    similarity keeps consensus-factor rows close), each with the pairs it
    tested and the violations of its bound among them. Both walk the
    edges of valid graphs (`model.check_state`); rho and the zetas must be
    positive numbers, else ValueError.
    """
    rho, zetas = float(rho), tuple(zetas)
    if not (rho > 0.0 and all(float(z) > 0.0 for z in zetas)):
        raise ValueError("rho and the zetas must be positive numbers, got "
                         f"rho={rho}, zetas={zetas}")
    return {"neighbor_consistency": _neighbor_consistency(state, masks, rho),
            "consensus_consistency": _consensus_consistency(state, masks,
                                                            zetas)}
