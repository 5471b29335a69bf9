"""The blocked graph updates and the (n, k) graph reductions, checked
against the dense code they replaced (kept in `graph_oracle`) on random
states: the updates bit for bit, the reductions to 1e-12 relative."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from climfs import numkit
from climfs.model import (Components, FitConfig, ModelState, update_H,
                          update_S)

# n values: tiny, a few dozen, and more than one column block
SIZES = (12, 40, numkit.COLUMN_BLOCK + 40)
RELATIVE = 1e-12


def random_graph(rng, n, k):
    """(n, k) neighbours (distinct, ascending, never the column itself)
    and simplex weights."""
    keys = rng.random((n, n))
    keys[np.arange(n), np.arange(n)] = np.inf
    nbr = np.sort(np.argsort(keys, axis=1)[:, :k], axis=1)
    w = rng.random((n, k)) + 0.1
    return nbr, w / w.sum(axis=1, keepdims=True)


def random_state(seed, n, views, k, tied):
    """Random state; with `tied`, integer data and a 0/1 consensus factor,
    so most costs are small integers and many columns tie."""
    rng = np.random.default_rng(seed)
    c = 3
    dims = rng.integers(1, 6, size=views)
    if tied:
        Xhat = [rng.integers(0, 3, size=(d, n)).astype(float) for d in dims]
        Fstar = rng.integers(0, 2, size=(n, c)).astype(float)
    else:
        Xhat = [rng.normal(size=(d, n)) for d in dims]
        Fstar = np.abs(rng.normal(size=(n, c)))
    graphs = [random_graph(rng, n, k) for _ in range(views + 1)]
    a = rng.random(views) + 0.2
    return ModelState(
        Xhat=Xhat, W=[np.ones((d, c)) for d in dims],
        Fv=[np.zeros((n, c)) for _ in range(views)], Fstar=Fstar,
        S_nbr=[g[0] for g in graphs[:-1]], S_w=[g[1] for g in graphs[:-1]],
        H_nbr=graphs[-1][0], H_w=graphs[-1][1], alpha=a / a.sum(),
        adam_m=[np.zeros((n, c)) for _ in range(views)],
        adam_v=[np.zeros((n, c)) for _ in range(views)],
        # stored coefficients on both sides of the self-tuned ones (xi is
        # a half-gap minus alpha_v^2, so it can be negative): some column
        # swaps pay for themselves, some do not
        xi=[rng.uniform(-1.0, 0.3, size=n) for _ in range(views)],
        gamma=rng.uniform(-1.0, 0.3, size=n))


@st.composite
def states(draw):
    n = draw(st.sampled_from(SIZES))
    k = draw(st.integers(1, 6))
    return random_state(draw(st.integers(0, 2 ** 32 - 1)), n,
                        draw(st.integers(1, 3)), k, draw(st.booleans())), k


def check_update_s(state, k):
    dense = oracle.dense_state(state)
    skips, perturbed = oracle.update_S(dense, k)
    got = update_S(state, FitConfig(k=k, c=1))
    assert (got["s_guard_skips"], got["s_perturbed"]) == (skips, perturbed)
    for v in range(state.n_views):
        assert state.S[v].tobytes() == dense.S[v].tobytes()
        assert state.xi[v].tobytes() == dense.xi[v].tobytes()
    return got


def check_update_h(state, k, cluster_structure):
    dense = oracle.dense_state(state)
    skips, perturbed = oracle.update_H(dense, k, cluster_structure)
    got = update_H(state, FitConfig(k=k, c=1),
                   Components(cluster_structure=cluster_structure))
    assert (got["h_guard_skips"], got["h_perturbed"]) == (skips, perturbed)
    assert state.H.tobytes() == dense.H.tobytes()
    assert state.gamma.tobytes() == dense.gamma.tobytes()
    return got


SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(states())
def test_update_s_equals_the_dense_refresh_bitwise(drawn):
    check_update_s(*drawn)


@SETTINGS
@given(states(), st.booleans())
def test_update_h_equals_the_dense_refresh_bitwise(drawn, cluster_structure):
    check_update_h(*drawn, cluster_structure)


def test_tied_multi_block_updates_take_every_path():
    # more than one column block, ties that need the perturbation retry,
    # and guards that both keep and swap columns
    n, k = numkit.COLUMN_BLOCK + 40, 4
    state = random_state(3, n, 2, k, tied=True)
    got = check_update_s(state, k)
    assert got["s_perturbed"] > 0
    assert 0 < got["s_guard_skips"] < got["s_columns"] == 2 * n
    got = check_update_h(state, k, True)
    assert got["h_perturbed"] > 0
    assert 0 < got["h_guard_skips"] < got["h_columns"] == n


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert got.shape == want.shape
    assert float(np.abs(got - want).max(initial=0.0)) <= RELATIVE * scale


@SETTINGS
@given(states())
def test_graph_reductions_match_dense_forms(drawn):
    state, _ = drawn
    graphs = list(zip(state.S_nbr, state.S_w)) + [(state.H_nbr, state.H_w)]
    dense = state.S + [state.H]
    F, n = state.Fstar, state.n_samples
    for (nbr, w), A in zip(graphs, dense):
        loop = np.zeros((n, n))
        for j in range(n):
            loop[nbr[j], j] += w[j]
        assert np.array_equal(A, loop)
        assert_close(numkit.sym_degrees(nbr, w), oracle.sym_degrees(A))
        L = oracle.laplacian(A)
        assert_close(numkit.laplacian(nbr, w), L)
        for X in state.Xhat + [F.T]:
            assert_close(numkit.laplacian_quad(X, nbr, w),
                         np.sum((X @ L) * X))
        assert_close(numkit.sym_matmul(nbr, w, F), (A @ F + A.T @ F) / 2.0)
        assert np.array_equal(numkit.sym_matmul(nbr, w, F),
                              oracle.sym_matmul(nbr, w, F))
        for (nbr_b, w_b), B in zip(graphs, dense):
            assert_close(numkit.graph_inner(nbr, w, nbr_b, w_b),
                         np.vdot(A, B))


def test_dense_graphs_are_fresh_read_only_copies():
    state = random_state(0, 12, 2, 3, tied=False)
    S, H = state.S, state.H
    assert not (S[0].flags.writeable or H.flags.writeable)
    assert state.S[0] is not S[0] and np.array_equal(state.S[0], S[0])
