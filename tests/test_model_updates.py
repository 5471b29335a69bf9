"""Per-update checks for the alternating optimizer.

Each closed-form step is compared against an independent route: literal
loop-built cost matrices, support enumeration, Kronecker-assembled linear
solves, dense grid search, or KKT stationarity certificates. Guarded
steps are additionally checked to never increase the traced objective.
"""

import itertools

import numpy as np
import pytest

from climfs import model, numkit
from climfs.dataset import (MaskMatrix, MissingScenario, MultiViewDataset,
                            apply_missing, make_synthetic)
from climfs.errors import NumericError
from climfs.evaluation import _consensus_value
from climfs.model import (EPS_DV, Components, FitConfig, ModelState,
                          _b_spec, _constrained_impute, _costs, _q_spec,
                          fit, init_state, objective, update_alpha,
                          update_Fstar, update_Fv, update_S, update_H,
                          update_W, update_Xhat)
from graph_oracle import (constrained_impute, graph_fields, laplacian,
                          set_graph, whole_half_sq_dists)

# ----------------------------------------------------------------- helpers


def rand_graph(rng, n, k):
    """Random k-sparse simplex-column graph with zero diagonal."""
    G = np.zeros((n, n))
    for j in range(n):
        rows = rng.choice(np.delete(np.arange(n), j), size=k, replace=False)
        w = rng.random(k) + 0.1
        G[rows, j] = w / w.sum()
    return G


def shifted_graph(n, k, shift):
    """Valid k-sparse simplex-column graph: column j weighs rows
    j+shift, ..., j+shift+k-1 (mod n) equally; needs 1 <= shift <= n-k."""
    G = np.zeros((n, n))
    for j in range(n):
        G[(j + shift + np.arange(k)) % n, j] = 1.0 / k
    return G


def l21_diagonal(W):
    """The reweighted l2,1 diagonal `update_W` takes from the W it
    replaces."""
    return 1.0 / (2.0 * np.sqrt(np.einsum("ij,ij->i", W, W) + EPS_DV))


# A stored S / H coefficient this large makes every column swap pay for
# itself, so the always-on guards accept every closed-form column and the
# updates can be checked column by column against their oracles.
SWAP_ALL = 1e3


def make_state(rng, n=8, dims=(4, 3), c=2, k=2):
    """Generic-position state, constraints satisfied by construction."""
    V = len(dims)
    W = [rng.normal(size=(d, c)) for d in dims]
    a = rng.random(V) + 0.2
    return ModelState(
        Xhat=[rng.normal(size=(d, n)) for d in dims],
        W=W,
        Fv=[rng.normal(size=(n, c)) * (rng.random((n, c)) < 0.5)
            for _ in range(V)],
        Fstar=np.abs(rng.normal(size=(n, c))),
        **graph_fields([rand_graph(rng, n, k) for _ in range(V)],
                       rand_graph(rng, n, k), k),
        alpha=a / a.sum(),
        adam_m=[np.zeros((n, c)) for _ in range(V)],
        adam_v=[np.zeros((n, c)) for _ in range(V)],
        xi=[rng.random(n) * 0.1 for _ in range(V)],
        gamma=rng.random(n) * 0.1)


def fitted_instance(seed, n=30, iters=3):
    ds = make_synthetic(n=n, views=2, clusters=3, informative=4, noise=5,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.3, seed + 1))
    cfg = FitConfig(k=4, c=3, max_iter=iters, tol=1e-12, seed=seed)
    state = init_state(masked, masks, cfg)
    from climfs.model import fit
    state, _ = fit(masked, masks, cfg, state=state)
    return masked, masks, cfg, state


def q_loops(state, v):
    """Literal per-entry construction of the S^v cost matrix."""
    n = state.n_samples
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = state.Xhat[v][:, i] - state.Xhat[v][:, j]
            val = 0.5 * float(d @ d) - state.alpha[v] * state.H[i, j]
            for m in range(state.n_views):
                if m != v:
                    val += (2.0 * state.alpha[v] * state.alpha[m]
                            * state.S[m][i, j])
            Q[i, j] = val
    return Q


def b_loops(state, cluster_structure=True):
    """Literal per-entry construction of the H cost matrix."""
    n = state.n_samples
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            val = -sum(float(a) * state.S[m][i, j]
                       for m, a in enumerate(state.alpha))
            if cluster_structure:
                g = state.Fstar[i] - state.Fstar[j]
                val += 0.5 * float(g @ g)
            B[i, j] = val
    return B


# --------------------------------------------------------------- update_W


def test_update_w_solves_stated_system():
    rng = np.random.default_rng(0)
    for _ in range(20):
        st = make_state(rng)
        cfg = FitConfig(lam=0.7, c=2, k=2)
        d_prev = [l21_diagonal(w) for w in st.W]
        update_W(st, cfg)
        for v in range(st.n_views):
            F = st.Fv[v] + st.Fstar
            G = F.T @ F
            C = st.Xhat[v] @ F
            res = (cfg.lam * d_prev[v][:, None] * st.W[v]
                   + st.W[v] @ G - C)
            assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(C).max())


def test_update_w_orthonormal_factor_closed_form():
    rng = np.random.default_rng(1)
    st = make_state(rng, n=8, dims=(5, 4), c=2)
    # orthonormal combined factor: G = I, so rows decouple
    for v in range(st.n_views):
        Qf, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        st.Fv[v] = np.zeros((8, 2))
        st.Fstar = Qf  # shared; last view's Qf wins, same for both terms
    cfg = FitConfig(lam=0.9, c=2, k=2)
    d_prev = [l21_diagonal(w) for w in st.W]
    update_W(st, cfg)
    for v in range(st.n_views):
        F = st.Fv[v] + st.Fstar
        C = st.Xhat[v] @ F
        want = C / (cfg.lam * d_prev[v][:, None] + 1.0)
        assert np.allclose(st.W[v], want, atol=1e-10)


def test_update_w_descends_its_terms():
    rng = np.random.default_rng(2)
    cfg = FitConfig(lam=1.3, c=2, k=2)

    def val(st):
        _, terms = objective(st, cfg)
        return terms["recon"] + terms["w_l21"]

    for _ in range(30):
        st = make_state(rng)
        before = val(st)
        update_W(st, cfg)
        assert val(st) <= before + 1e-9 * max(1.0, abs(before))


# -------------------------------------------------------------- update_Fv


def _fv_value(st, v, beta):
    R = st.Xhat[v] - st.W[v] @ (st.Fv[v] + st.Fstar).T
    return float(np.sum(R * R) + beta * np.abs(st.Fv[v]).sum())


def _fstar_value(st, Fstar, deg):
    """F* subproblem value in full; `deg` is numkit.sym_degrees(H), or
    None when the cluster-structure term is off."""
    total = 0.0
    for v in range(st.n_views):
        R = st.Xhat[v] - st.W[v] @ (st.Fv[v] + Fstar).T
        total += float(np.sum(R * R))
    if deg is not None:
        total += numkit.laplacian_quad(Fstar.T, st.H_nbr, st.H_w, deg)
    Gram = Fstar.T @ Fstar - np.eye(Fstar.shape[1])
    total += model.ORTH_RHO * float(np.sum(Gram * Gram))
    return total


def test_update_fv_matches_grid_oracle():
    # one sample, two features, two factors: exhaustive grid over F
    rng = np.random.default_rng(3)
    st = make_state(rng, n=3, dims=(2,), c=2, k=1)
    st.W = [np.array([[1.0, 0.3], [-0.2, 0.8]])]
    st.Fstar = np.array([[0.2, 0.1], [0.0, 0.0], [0.0, 0.0]])
    st.Xhat = [np.array([[0.9, 0.0, 0.0], [0.4, 0.0, 0.0]])]
    st.Fv = [np.zeros((3, 2))]
    st.adam_m, st.adam_v = [np.zeros((3, 2))], [np.zeros((3, 2))]
    cfg = FitConfig(beta=0.05, c=2, k=1)

    # grid over the first row of F (other rows stay at their optimum 0,
    # since their data columns are 0 and F* rows are 0 there the penalty
    # dominates any move)
    g1, g2 = np.meshgrid(np.arange(-2, 2.0001, 0.01),
                         np.arange(-2, 2.0001, 0.01), indexing="ij")
    Fs = st.Fstar[0]
    W = st.W[0]
    x = st.Xhat[0][:, 0]
    r0 = x[0] - W[0, 0] * (g1 + Fs[0]) - W[0, 1] * (g2 + Fs[1])
    r1 = x[1] - W[1, 0] * (g1 + Fs[0]) - W[1, 1] * (g2 + Fs[1])
    grid_best = float(np.min(r0 ** 2 + r1 ** 2
                             + cfg.beta * (np.abs(g1) + np.abs(g2))))

    prev = _fv_value(st, 0, cfg.beta)
    for _ in range(600):
        update_Fv(st, cfg)
        cur = _fv_value(st, 0, cfg.beta)
        assert cur <= prev + 1e-12
        prev = cur
    assert prev <= grid_best + 1e-2


def test_update_fv_zero_gradient_fixed_point():
    rng = np.random.default_rng(4)
    st = make_state(rng, n=6, dims=(4,), c=2, k=2)
    st.Fv = [np.zeros((6, 2))]
    st.Xhat = [st.W[0] @ st.Fstar.T]   # exact factorization at Fv = 0
    st.adam_m, st.adam_v = [np.zeros((6, 2))], [np.zeros((6, 2))]
    cfg = FitConfig(beta=0.5, c=2, k=2)
    update_Fv(st, cfg)
    assert np.array_equal(st.Fv[0], np.zeros((6, 2)))


def test_update_fv_large_beta_drives_to_zero():
    rng = np.random.default_rng(5)
    st = make_state(rng, n=6, dims=(4,), c=2, k=2)
    st.Fv = [rng.normal(size=(6, 2)) * 0.01]
    cfg = FitConfig(beta=1e6, c=2, k=2)
    for _ in range(50):  # 500 Adam steps
        update_Fv(st, cfg)
    assert np.abs(st.Fv[0]).max() < 1e-6


def test_update_fv_never_increases():
    rng = np.random.default_rng(6)
    cfg = FitConfig(beta=0.3, c=2, k=2)
    for _ in range(30):
        st = make_state(rng)
        before = [_fv_value(st, v, cfg.beta) for v in range(st.n_views)]
        update_Fv(st, cfg)
        after = [_fv_value(st, v, cfg.beta) for v in range(st.n_views)]
        for b, a in zip(before, after):
            assert a <= b + 1e-12 * max(1.0, abs(b))


# ------------------------------------------------------------ update_Fstar


def test_update_fstar_fixed_point_when_ratio_is_one():
    # exact factorization with orthonormal F* and no graph term: the
    # stationarity numerator and denominator coincide entrywise
    rng = np.random.default_rng(7)
    n, c = 8, 2
    st = make_state(rng, n=n, dims=(5, 4), c=c, k=2)
    labels = np.arange(n) % c
    F = np.zeros((n, c))
    F[np.arange(n), labels] = 1.0
    F /= np.sqrt(np.bincount(labels))[labels][:, None]   # F^T F = I
    st.Fstar = F
    st.Fv = [np.zeros((n, c)) for _ in range(st.n_views)]
    st.Xhat = [W @ F.T for W in st.W]
    cfg = FitConfig(c=c, k=2)
    comp = Components(cluster_structure=False)
    before = st.Fstar.copy()
    update_Fstar(st, cfg, comp)
    assert np.allclose(st.Fstar, before, atol=1e-12)


def test_update_fstar_preserves_zeros_and_sign():
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = make_state(rng)
        st.Fstar[rng.random(st.Fstar.shape) < 0.3] = 0.0
        zeros = st.Fstar == 0.0
        update_Fstar(st, FitConfig(c=2, k=2))
        assert (st.Fstar[zeros] == 0.0).all()
        assert (st.Fstar >= 0.0).all()


def test_update_fstar_descends_subobjective():
    rng = np.random.default_rng(9)
    cfg = FitConfig(c=2, k=2)
    for _ in range(30):
        st = make_state(rng)
        deg = numkit.sym_degrees(st.H_nbr, st.H_w)
        before = _fstar_value(st, st.Fstar, deg)
        update_Fstar(st, cfg)
        after = _fstar_value(st, st.Fstar, deg)
        assert after <= before + 1e-9 * max(1.0, abs(before))


def test_guard_changes_match_full_value_differences(monkeypatch):
    # the F^v and F* guards take each candidate's change of their
    # subproblem in closed form; record every change they take and compare
    # it with the difference of the full values at the candidate and at
    # the iterate the step started from
    seen = []
    first_descent = model._first_descent

    def recording(candidate, change):
        call, now = len(seen), ([F.copy() for F in st.Fv], st.Fstar.copy())
        seen.append([])

        def recorded(C):
            seen[call].append((now, C.copy(), change(C)))
            return seen[call][-1][2]
        return first_descent(candidate, recorded)

    monkeypatch.setattr(model, "_first_descent", recording)
    rng = np.random.default_rng(31)
    signs = set()
    for comps in (Components(), Components(cluster_structure=False)):
        cfg = FitConfig(beta=0.3, c=3, k=3)
        for _ in range(8):
            st = make_state(rng, n=12, dims=(5, 4, 6), c=3, k=3)
            for sweep in range(3):
                st.sweeps = sweep
                seen.clear()
                update_Fv(st, cfg)
                for call, tries in enumerate(seen):
                    v = call // model.FV_INNER_STEPS
                    for (Fv, Fstar), C, change in tries:
                        base = ModelState(**{**vars(st), "Fv": Fv,
                                             "Fstar": Fstar})
                        f = _fv_value(base, v, cfg.beta)
                        base.Fv = Fv[:v] + [C] + Fv[v + 1:]
                        diff = _fv_value(base, v, cfg.beta) - f
                        assert abs(change - diff) <= 1e-9 * max(1.0, abs(f))
                        signs.add(("Fv", change > 0.0))
                seen.clear()
                update_Fstar(st, cfg, comps)
                deg = numkit.sym_degrees(st.H_nbr, st.H_w) \
                    if comps.cluster_structure else None
                for (_, Fstar), C, change in seen[0]:
                    f = _fstar_value(st, Fstar, deg)
                    diff = _fstar_value(st, C, deg) - f
                    assert abs(change - diff) <= 1e-9 * max(1.0, abs(f))
                    signs.add(("Fstar", change > 0.0))
    # both guards met candidates they accepted and candidates they rejected
    assert signs == {(b, up) for b in ("Fv", "Fstar") for up in (False, True)}


def test_update_fstar_orthogonality_drift_bounded():
    rng = np.random.default_rng(10)
    st = make_state(rng, n=10, dims=(6, 5), c=3, k=2)
    st.Fstar = np.abs(rng.normal(size=(10, 3)))
    cfg = FitConfig(c=3, k=2)
    gram0 = np.linalg.norm(st.Fstar.T @ st.Fstar - np.eye(3))
    for _ in range(50):
        update_Fstar(st, cfg)
    gram = np.linalg.norm(st.Fstar.T @ st.Fstar - np.eye(3))
    assert gram <= gram0 + 1e-6


# ------------------------------------------------------------ update_S / H


def test_q_spec_costs_match_literal_loops():
    # row r of a block holds the costs of column cols[r]
    rng = np.random.default_rng(11)
    st = make_state(rng, n=7, dims=(4, 3, 5), c=2, k=2)
    for v in range(3):
        Q = q_loops(st, v)
        for cols in (np.arange(7), np.array([5, 1, 2])):
            out = np.full((cols.size, 7), np.nan)
            assert np.allclose(_costs(*_q_spec(st, v), cols, out),
                               Q[:, cols].T, atol=1e-12)


def test_b_spec_costs_match_literal_loops():
    rng = np.random.default_rng(12)
    st = make_state(rng, n=7, dims=(4, 3), c=2, k=2)
    for comps in (Components(), Components(cluster_structure=False)):
        B = b_loops(st, comps.cluster_structure)
        for cols in (np.arange(7), np.array([6, 0])):
            out = np.full((cols.size, 7), np.nan)
            assert np.allclose(_costs(*_b_spec(st, comps), cols, out),
                               B[:, cols].T, atol=1e-12)


def test_init_specs_give_half_squared_distances_bitwise():
    # init_state prices each block of columns from one half-distance block
    # per view: S^v from it, H from the views' mean and xi from it plus the
    # graph terms. Each graph and xi equals the kernel on the whole-matrix
    # costs, over two COLUMN_BLOCK-aligned blocks, the second one partial
    rng = np.random.default_rng(30)
    n, k = numkit.COLUMN_BLOCK + 40, 5
    ds = MultiViewDataset([rng.normal(size=(d, n)) for d in (5, 3, 4)])
    st = init_state(ds, MaskMatrix.all_observed(ds), FitConfig(k=k, c=2))
    halves = [whole_half_sq_dists(X) for X in ds.views]

    def solved(Q):  # every column, neighbours ascending
        nbr, w, half, _ = numkit.ksparse_simplex_columns(Q.copy(),
                                                         np.arange(n), k)
        order = np.argsort(nbr, axis=1)
        return (np.take_along_axis(nbr, order, axis=1),
                np.take_along_axis(w, order, axis=1), half)

    nbr, w, _ = solved(sum(halves) / len(halves))
    assert np.array_equal(st.H_nbr, nbr) and np.array_equal(st.H_w, w)
    a, H, S = st.alpha, st.H, st.S
    for v, half in enumerate(halves):
        nbr, w, _ = solved(half)
        assert np.array_equal(st.S_nbr[v], nbr)
        assert np.array_equal(st.S_w[v], w)
        Q = half - a[v] * H.T  # the terms in `_q_spec`'s order
        for m in range(len(halves)):
            if m != v:
                Q = Q + 2.0 * a[v] * a[m] * S[m].T
        assert np.array_equal(st.xi[v], solved(Q)[2] - a[v] ** 2)


def test_update_s_matches_sequential_mirror():
    # replay the exact update sequence with loop-built costs: views in
    # order, each seeing the graphs already refreshed this sweep
    rng = np.random.default_rng(13)
    st = make_state(rng, n=7, dims=(4, 3, 5), c=2, k=2)
    st.xi = [np.full(7, SWAP_ALL) for _ in range(3)]
    cfg = FitConfig(c=2, k=2)
    mirror_S = [G.copy() for G in st.S]
    mirror_xi = [x.copy() for x in st.xi]
    snapshot = make_state(np.random.default_rng(13), n=7, dims=(4, 3, 5),
                          c=2, k=2)
    assert update_S(st, cfg)["s_guard_skips"] == 0
    idx = np.arange(7)
    for v in range(3):
        for m in range(3):
            set_graph(snapshot, m, mirror_S[m])
        Q = q_loops(snapshot, v)
        for j in range(7):
            keep = idx != j
            s_sub, half = numkit.ksparse_simplex_min(Q[keep, j], cfg.k)
            mirror_S[v][:, j] = 0.0
            mirror_S[v][keep, j] = s_sub
            mirror_xi[v][j] = half - snapshot.alpha[v] ** 2
    for v in range(3):
        assert np.allclose(st.S[v], mirror_S[v], atol=1e-10)
        assert np.allclose(st.xi[v], mirror_xi[v], atol=1e-10)


def test_update_s_column_beats_support_enumeration():
    rng = np.random.default_rng(14)
    st = make_state(rng, n=5, dims=(4,), c=2, k=2)
    st.xi = [np.full(5, SWAP_ALL)]
    cfg = FitConfig(c=2, k=2)
    Q = q_loops(st, 0)   # single view: costs do not move during the sweep
    assert update_S(st, cfg)["s_guard_skips"] == 0
    idx = np.arange(5)
    for j in range(5):
        keep = idx != j
        q = Q[keep, j]
        xi = st.xi[0][j] + st.alpha[0] ** 2
        got = float(q @ st.S[0][keep, j]
                    + xi * (st.S[0][keep, j] @ st.S[0][keep, j]))
        best = np.inf
        for sup in itertools.combinations(range(4), 2):
            sup = list(sup)
            # minimize q.s + xi s.s over the simplex on this support
            y = -q[sup] / (2.0 * xi)
            u = np.sort(y)[::-1]
            css = np.cumsum(u)
            ks = np.arange(1, 3)
            ok = u + (1.0 - css) / ks > 0
            tau = (css[ks[ok][-1] - 1] - 1.0) / ks[ok][-1]
            s = np.maximum(y - tau, 0.0)
            best = min(best, float(q[sup] @ s + xi * (s @ s)))
        assert got <= best + 1e-8


def test_update_s_tie_break_prefers_lower_index():
    # two equidistant candidates and k = 1: the perturbation retry must
    # deterministically pick the lower sample index (column 0 starts on
    # the higher one)
    st = ModelState(
        Xhat=[np.array([[0.0, 1.0, -1.0]])],
        W=[np.ones((1, 1))],
        Fv=[np.zeros((3, 1))],
        Fstar=np.ones((3, 1)),
        **graph_fields([shifted_graph(3, 1, 2)], np.zeros((3, 3)), 1),
        alpha=np.array([1.0]),
        adam_m=[np.zeros((3, 1))], adam_v=[np.zeros((3, 1))],
        xi=[np.full(3, SWAP_ALL)],
        gamma=np.zeros(3))
    cfg = FitConfig(c=1, k=1)
    counters = update_S(st, cfg)
    assert counters["s_perturbed"] >= 1
    assert counters["s_guard_skips"] == 0
    assert st.S[0][1, 0] == 1.0 and st.S[0][2, 0] == 0.0


def test_update_s_equal_distances_selects_lowest_indices():
    # regular-simplex geometry: all pairwise distances equal; with no
    # graph attraction any k-subset is optimal and the tie rule picks the
    # lowest indices
    n, k = 5, 2
    st = ModelState(
        Xhat=[np.eye(n) * 3.0],
        W=[np.ones((n, 1))],
        Fv=[np.zeros((n, 1))],
        Fstar=np.ones((n, 1)),
        # starts on the highest indices
        **graph_fields([shifted_graph(n, k, 3)], np.zeros((n, n)), k),
        alpha=np.array([1.0]),
        adam_m=[np.zeros((n, 1))], adam_v=[np.zeros((n, 1))],
        xi=[np.full(n, SWAP_ALL)],
        gamma=np.zeros(n))
    cfg = FitConfig(c=1, k=k)
    assert update_S(st, cfg)["s_guard_skips"] == 0
    for j in range(n):
        support = np.flatnonzero(st.S[0][:, j])
        expect = [i for i in range(n) if i != j][:k]
        assert support.tolist() == expect


def test_update_s_duplicate_sample_one_hot():
    st = ModelState(
        Xhat=[np.array([[0.0, 0.0, 5.0, 9.0]])],
        W=[np.ones((1, 1))],
        Fv=[np.zeros((4, 1))],
        Fstar=np.ones((4, 1)),
        **graph_fields([shifted_graph(4, 1, 2)], np.zeros((4, 4)), 1),
        alpha=np.array([1.0]),
        adam_m=[np.zeros((4, 1))], adam_v=[np.zeros((4, 1))],
        xi=[np.full(4, SWAP_ALL)],
        gamma=np.zeros(4))
    assert update_S(st, FitConfig(c=1, k=1))["s_guard_skips"] == 0
    assert st.S[0][1, 0] == 1.0
    assert np.count_nonzero(st.S[0][:, 0]) == 1


def test_update_h_matches_mirror():
    rng = np.random.default_rng(15)
    st = make_state(rng, n=7, dims=(4, 3), c=2, k=2)
    st.gamma = np.full(7, SWAP_ALL)
    cfg = FitConfig(c=2, k=2)
    B = b_loops(st)
    assert update_H(st, cfg)["h_guard_skips"] == 0
    idx = np.arange(7)
    for j in range(7):
        keep = idx != j
        h_sub, half = numkit.ksparse_simplex_min(B[keep, j], cfg.k)
        want = np.zeros(7)
        want[keep] = h_sub
        assert np.allclose(st.H[:, j], want, atol=1e-10)
        assert abs(st.gamma[j] - half) <= 1e-10


def test_update_h_concentrates_on_dominant_fused_entry():
    rng = np.random.default_rng(16)
    st = make_state(rng, n=6, dims=(4,), c=2, k=2)
    st.Fstar = np.ones((6, 2))          # no row gaps: b = -P exactly
    G = np.zeros((6, 6))
    G[3, 0] = 1.0                       # huge fused attraction at (3, 0)
    for j in range(1, 6):
        G[(j + 1) % 6 if (j + 1) % 6 != j else 0, j] = 1.0
    set_graph(st, 0, G)
    st.gamma = np.full(6, SWAP_ALL)
    assert update_H(st, FitConfig(c=2, k=2))["h_guard_skips"] == 0
    assert st.H[3, 0] == st.H[:, 0].max()


# ------------------------------------------------------------ update_alpha


def test_update_alpha_identical_graphs_uniform():
    rng = np.random.default_rng(17)
    st = make_state(rng, n=7, dims=(4, 3), c=2, k=2)
    st.S_nbr[1], st.S_w[1] = st.S_nbr[0].copy(), st.S_w[0].copy()
    update_alpha(st, FitConfig(c=2, k=2))
    assert np.allclose(st.alpha, [0.5, 0.5], atol=1e-10)


def test_update_alpha_single_view():
    rng = np.random.default_rng(18)
    st = make_state(rng, n=7, dims=(4,), c=2, k=2)
    update_alpha(st, FitConfig(c=2, k=2))
    assert np.array_equal(st.alpha, np.array([1.0]))


def test_update_alpha_matches_grid_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        st = make_state(rng, n=7, dims=(4, 3, 5), c=2, k=2)
        Q = np.empty((3, 3))
        c = np.empty(3)
        for v in range(3):
            for m in range(3):
                Q[v, m] = np.sum(st.S[v] * st.S[m])
            c[v] = -np.sum(st.H * st.S[v])
        update_alpha(st, FitConfig(c=2, k=2))
        got = float(st.alpha @ Q @ st.alpha + c @ st.alpha)
        best = np.inf
        step = 1e-3
        for a1 in np.arange(0.0, 1.0 + step / 2, step):
            a2 = np.arange(0.0, 1.0 - a1 + step / 2, step)
            a3 = 1.0 - a1 - a2
            vals = (Q[0, 0] * a1 ** 2 + Q[1, 1] * a2 ** 2 + Q[2, 2] * a3 ** 2
                    + 2 * Q[0, 1] * a1 * a2 + 2 * Q[0, 2] * a1 * a3
                    + 2 * Q[1, 2] * a2 * a3
                    + c[0] * a1 + c[1] * a2 + c[2] * a3)
            best = min(best, float(vals.min()))
        assert got <= best + 5e-3


# ------------------------------------------------------------- update_Xhat


def _xhat_instance(seed, d=3, n=6):
    rng = np.random.default_rng(seed)
    st = make_state(rng, n=n, dims=(d,), c=2, k=2)
    mask = (rng.random((d, n)) < 0.6).astype(float)
    mask[:, 0] = 1.0    # keep at least one fully observed sample
    X = rng.normal(size=(d, n))
    ds = MultiViewDataset(views=[X])
    masks = MaskMatrix(masks=[mask])
    st.Xhat = [np.where(mask == 1.0, X, st.Xhat[0])]
    return st, ds, masks


def test_update_xhat_matches_kron_oracle():
    # on these instances the guard accepts the fast path every time (the
    # fallback is covered by test_xhat_guard_fallback_never_increases)
    for seed in range(10):
        st, ds, masks = _xhat_instance(seed)
        M = st.W[0] @ (st.Fv[0] + st.Fstar).T
        L = laplacian(st.S[0])
        d, n = M.shape
        A = np.kron(np.eye(d), (np.eye(n) + L).T)
        R = np.linalg.solve(A, M.reshape(-1)).reshape(d, n)
        expect = R.copy()
        obs = masks.masks[0] == 1.0
        expect[obs] = ds.views[0][obs]
        assert update_Xhat(st, ds, masks)["xhat_fallbacks"] == 0
        assert np.allclose(st.Xhat[0], expect, atol=1e-9)
        assert np.array_equal(st.Xhat[0][obs], ds.views[0][obs])


def test_update_xhat_without_graphs_uses_reconstruction():
    st, ds, masks = _xhat_instance(3)
    comp = Components(graph_learning=False)
    M = st.W[0] @ (st.Fv[0] + st.Fstar).T
    update_Xhat(st, ds, masks, comp)
    free = masks.masks[0] == 0.0
    assert np.array_equal(st.Xhat[0][free], M[free])
    assert np.array_equal(st.Xhat[0][~free], ds.views[0][~free])


def test_update_xhat_all_observed_returns_data():
    st, ds, _ = _xhat_instance(4)
    masks = MaskMatrix(masks=[np.ones_like(ds.views[0])])
    update_Xhat(st, ds, masks)
    assert np.array_equal(st.Xhat[0], ds.views[0])


def _impute(st, ds, mask):
    """The fallback solve of view 0 of an `_xhat_instance` under `mask`,
    and the dense per-row Cholesky oracle's answer."""
    M = st.W[0] @ (st.Fv[0] + st.Fstar).T
    K = numkit.identity_plus_laplacian(st.S_nbr[0], st.S_w[0])
    Z, steps = _constrained_impute(M, K, mask == 1.0, ds.views[0], st.Xhat[0])
    expect = constrained_impute(M, np.eye(M.shape[1]) + laplacian(st.S[0]),
                                mask, ds.views[0])
    return Z, steps, expect


def assert_rel_close(got, expect, rtol):
    assert np.abs(got - expect).max() <= rtol * np.abs(expect).max()


def test_constrained_impute_is_stationary():
    # optimality certificate: zero gradient on free coordinates, pins on
    # the observed ones; this is the exact subproblem minimizer
    for seed in range(10):
        st, ds, masks = _xhat_instance(seed + 20)
        M = st.W[0] @ (st.Fv[0] + st.Fstar).T
        L = laplacian(st.S[0])
        Z, _, _ = _impute(st, ds, masks.masks[0])
        grad = 2.0 * (Z - M) + 2.0 * Z @ L
        free = masks.masks[0] == 0.0
        assert np.abs(grad[free]).max() <= 1e-8
        assert np.array_equal(Z[~free], ds.views[0][~free])


def test_constrained_impute_matches_row_oracle():
    for seed in range(20):
        st, ds, masks = _xhat_instance(seed + 20, d=5, n=12)
        mask = masks.masks[0].copy()
        mask[0] = 1.0                 # a feature row with no free entry
        mask[1] = 1.0
        mask[1, 3 + seed % 9] = 0.0   # and one with a single free entry
        Z, _, expect = _impute(st, ds, mask)
        assert_rel_close(Z, expect, 1e-10)


@pytest.mark.parametrize("free_entries", [0, 1])
def test_constrained_impute_rows_with_at_most_one_free_entry(free_entries):
    # no free entry: every right-hand side is zero and the solve is done
    # at step 0; one free entry: a 1 x 1 system the Jacobi step solves
    st, ds, masks = _xhat_instance(7)
    mask = np.ones_like(masks.masks[0])
    mask[1, 4:4 + free_entries] = 0.0
    with np.errstate(all="raise"):
        Z, steps, expect = _impute(st, ds, mask)
    assert steps == free_entries
    assert_rel_close(Z, expect, 1e-10)


def test_constrained_impute_matches_row_oracle_on_a_planted_fallback(
        monkeypatch):
    # the first fallback of the full model on the planted n=150 instance
    # of seed 0 (two views of 10 informative and 40 noise features, mixed
    # missingness at delta 0.5), recorded as the fit takes it
    ds = make_synthetic(n=150, views=2, clusters=3, informative=10, noise=40,
                        separation=3.0, noise_scale=0.6, seed=0)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.5, 0))
    real, taken = model._constrained_impute, []

    class Taken(Exception):
        pass

    def record(*args):
        taken.append((args, real(*args)))
        raise Taken

    monkeypatch.setattr(model, "_constrained_impute", record)
    with pytest.raises(Taken):
        fit(masked, masks, FitConfig(k=6, c=3, max_iter=60))
    (M, K, obs, Xorig, start), (Z, steps) = taken[0]
    assert isinstance(K, np.ndarray)   # dense I + L at n <= COLUMN_BLOCK
    assert 0 < steps < numkit.CG_MAXITER
    assert_rel_close(Z, constrained_impute(M, K, obs, Xorig), 1e-10)


@pytest.mark.parametrize("n", [numkit.COLUMN_BLOCK, numkit.COLUMN_BLOCK + 1])
def test_update_xhat_on_both_sides_of_column_block(n):
    # the fast path (a Cholesky solve up to COLUMN_BLOCK, conjugate
    # gradients above it) against a dense solve of I + L, then the
    # fallback, which a start just off the constrained minimizer forces,
    # against the per-row oracle
    st, ds, masks = _xhat_instance(11, d=3, n=n)
    M = st.W[0] @ (st.Fv[0] + st.Fstar).T
    K = np.eye(n) + laplacian(st.S[0])
    obs = masks.masks[0] == 1.0
    expect = np.where(obs, ds.views[0], np.linalg.solve(K, M.T).T)
    counters = update_Xhat(st, ds, masks)
    assert counters["xhat_fallbacks"] == 0
    assert (counters["cg_iters"] == 0) == (n <= numkit.COLUMN_BLOCK)
    assert_rel_close(st.Xhat[0], expect, 1e-10)
    assert np.array_equal(st.Xhat[0][obs], ds.views[0][obs])

    expect = constrained_impute(M, K, masks.masks[0], ds.views[0])
    jitter = np.random.default_rng(12).normal(size=expect.shape) * 1e-6
    st.Xhat[0] = np.where(obs, expect, expect + jitter)
    counters = update_Xhat(st, ds, masks)
    assert counters["xhat_fallbacks"] == 1 and counters["cg_iters"] > 0
    assert_rel_close(st.Xhat[0], expect, 1e-10)
    assert np.array_equal(st.Xhat[0][obs], ds.views[0][obs])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e3],
                         ids=["nan", "inf", "indefinite"])
def test_update_xhat_bad_graph_raises_numeric_error(bad):
    # a non-finite S^v, or negative weights that make I + L indefinite,
    # must not reach LAPACK unchecked or fail with a LinAlgError
    st, ds, masks = _xhat_instance(5)
    G = st.S[0].copy()
    G[:, :2] = 0.0
    G[1, 0] = G[0, 1] = bad
    set_graph(st, 0, G)
    with pytest.raises(NumericError):
        update_Xhat(st, ds, masks)


def test_xhat_guard_fallback_never_increases():
    # hunt for instances where the clamp heuristic would increase the
    # subproblem; the guarded update must then do at least as well as the
    # previous iterate, and it must keep the clamp wherever that decreases
    # the subproblem
    def subval(X, M, L):
        R = X - M
        return float(np.sum(R * R) + np.sum((X @ L) * X))

    found = kept = 0
    for seed in range(60):
        st, ds, masks = _xhat_instance(seed + 100)
        M = st.W[0] @ (st.Fv[0] + st.Fstar).T
        L = laplacian(st.S[0])
        R = np.linalg.solve(np.eye(6) + L, M.T).T
        clamped = R.copy()
        obs = masks.masks[0] == 1.0
        clamped[obs] = ds.views[0][obs]
        before = subval(st.Xhat[0], M, L)
        clamp = subval(clamped, M, L)
        counters = update_Xhat(st, ds, masks)
        after = subval(st.Xhat[0], M, L)
        assert after <= before + 1e-9 * max(1.0, abs(before))
        if clamp > before:
            found += 1
            assert counters["xhat_fallbacks"] == 1
        elif clamp < before:
            kept += 1
            assert counters["xhat_fallbacks"] == 0
    assert found > 0, "no instance exercised the fallback path"
    assert kept > 0, "no instance kept the fast path"


# ------------------------------------------------ graph terms as reductions


def test_graph_terms_match_laplacian_forms():
    # the objective's graph terms are reductions; the oracle builds the
    # dense Laplacians and elementwise products they replace
    rng = np.random.default_rng(21)
    cfg = FitConfig(c=3, k=3)
    for n in (8, 40):
        st = make_state(rng, n=n, dims=(5, 4, 6), c=3, k=3)
        for v, G in enumerate(st.S):  # asymmetric
            set_graph(st, v, G * (1.0 + rng.random((n, n))))
        set_graph(st, "H", st.H * (1.0 + rng.random((n, n))))
        _, terms = objective(st, cfg)
        a, V = st.alpha, st.n_views
        expect = {
            "smooth": sum(float(np.sum((X @ laplacian(S)) * X))
                          for X, S in zip(st.Xhat, st.S)),
            "fstar_smooth": float(np.sum(
                st.Fstar * (laplacian(st.H) @ st.Fstar))),
            "cross_view": sum(a[v] * a[m] * float(np.sum(st.S[v] * st.S[m]))
                              for v in range(V) for m in range(V)),
            "fusion": -float(np.sum(st.H * sum(a[v] * st.S[v]
                                               for v in range(V))))
            + float(st.gamma @ np.sum(st.H * st.H, axis=0))}
        for key, val in expect.items():
            assert abs(terms[key] - val) <= 1e-12 * abs(val), key
        recon = sum(float(np.sum((X - W @ (F + st.Fstar).T) ** 2))
                    for X, W, F in zip(st.Xhat, st.W, st.Fv))
        value = _consensus_value(st)
        assert abs(value - (recon + expect["fstar_smooth"])) \
            <= 1e-12 * abs(value)


# ---------------------------------------------- per-update trace monotonicity


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_guarded_update_keeps_traced_objective_monotone(seed):
    masked, masks, cfg, state = fitted_instance(seed)
    comp = Components()

    def total():
        return objective(state, cfg, comp)[0]

    steps = [lambda: update_W(state, cfg),
             lambda: update_Fv(state, cfg),
             lambda: update_Fstar(state, cfg, comp),
             lambda: update_S(state, cfg),
             lambda: update_H(state, cfg, comp),
             lambda: update_alpha(state, cfg),
             lambda: update_Xhat(state, masked, masks, comp)]
    for step in steps:
        before = total()
        step()
        after = total()
        assert after <= before + 1e-9 * max(1.0, abs(before))
