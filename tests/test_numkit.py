"""Kernel tests: each derived value is cross-checked against an
independent oracle (Kronecker vec-solve, support enumeration, grid
search) rather than against the implementation itself."""

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from climfs import numkit
from climfs.errors import NumericError
from climfs.numkit import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CG_RTOL,
                           COLUMN_BLOCK, adam_step, half_sq_dists,
                           half_sq_factors, identity_plus_laplacian,
                           ksparse_simplex_columns,
                           ksparse_simplex_min, laplacian, pcg, simplex_qp,
                           soft_threshold, solve_identity_plus_laplacian,
                           solve_scaled_sylvester, sym_csr, sym_degrees)
from graph_oracle import laplacian as dense_laplacian
from graph_oracle import sparse, whole_half_sq_dists

# ---------------------------------------------------------------- oracles


def kron_sylvester_oracle(d, lam, G, C):
    """Solve lam*diag(d)@W + W@G = C via the vectorized linear system.

    Row-major vec: vec(diag(d)@W) = (diag(d) kron I) vec(W) and
    vec(W@G) = (I kron G^T) vec(W).
    """
    p, c = C.shape
    A = lam * np.kron(np.diag(d), np.eye(c)) + np.kron(np.eye(p), G.T)
    return np.linalg.solve(A, C.reshape(-1)).reshape(p, c)


def project_simplex_oracle(y):
    """Textbook sort-based Euclidean projection onto the simplex."""
    n = y.shape[0]
    u = np.sort(y)[::-1]
    best_rho = 0
    for j in range(1, n + 1):
        if u[j - 1] - (np.sum(u[:j]) - 1.0) / j > 0:
            best_rho = j
    theta = (np.sum(u[:best_rho]) - 1.0) / best_rho
    return np.maximum(y - theta, 0.0)


def ksparse_enum_oracle(q, k, xi):
    """Minimize q.s + xi*||s||^2 over the k-sparse simplex by support
    enumeration: for each k-subset, project -q_A/(2 xi) onto the simplex."""
    n = q.shape[0]
    best_val, best_s = np.inf, None
    for sup in itertools.combinations(range(n), k):
        idx = list(sup)
        s_sub = project_simplex_oracle(-q[idx] / (2.0 * xi))
        s = np.zeros(n)
        s[idx] = s_sub
        val = q @ s + xi * (s @ s)
        if val < best_val - 1e-15:
            best_val, best_s = val, s
    return best_s, best_val


def simplex_grid_oracle(Q, c, step=1e-3):
    """Brute-force grid over the 2-simplex (V = 3 only)."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    keep = b <= 1.0 - a + step / 2
    a, b = a[keep], b[keep]
    X = np.stack([a, b, np.maximum(1.0 - a - b, 0.0)], axis=1)
    vals = np.einsum("mi,mi->m", X @ Q, X) + X @ c
    best = int(np.argmin(vals))
    return X[best], vals[best]


def columns(C, k):
    """`ksparse_simplex_columns` on every column of the square costs C."""
    return ksparse_simplex_columns(C.T.copy(), np.arange(C.shape[0]), k)


def ksparse_column(C, j, k):
    """Per-column reference for `ksparse_simplex_columns`: the scalar
    kernel on column j of the square costs C without its diagonal, retried
    after adding eta * position when the column is degenerate. Returns the
    dense column, its half-gap and whether it was perturbed."""
    n = C.shape[0]
    keep = np.arange(n) != j
    q, col = C[keep, j], np.zeros(n)
    try:
        col[keep], half = ksparse_simplex_min(q, k)
        return col, half, False
    except NumericError:
        eta = 1e-12 * max(1.0, float(np.abs(q).max()))
        col[keep], half = ksparse_simplex_min(q + eta * np.arange(n - 1), k)
        return col, half, True


def ksparse_column_loop(C, k):
    """`ksparse_column` on every column of C, as a dense graph, half-gaps
    and perturbed flags."""
    cols = [ksparse_column(C, j, k) for j in range(C.shape[0])]
    return (np.stack([c[0] for c in cols], axis=1),
            np.array([c[1] for c in cols]), np.array([c[2] for c in cols]))


# ------------------------------------------------------------- sylvester


def test_sylvester_identity_case():
    # d = 1, G = I, lam = 1  =>  2 W = C
    C = np.array([[2.0, 4.0], [6.0, 8.0], [1.0, 0.0]])
    W = solve_scaled_sylvester(np.ones(3), 1.0, np.eye(2), C)
    np.testing.assert_allclose(W, C / 2.0, rtol=0, atol=1e-14)


def test_sylvester_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        d = rng.uniform(0.1, 3.0, size=p)
        lam = float(rng.uniform(0.05, 5.0))
        B = rng.normal(size=(c, c))
        G = B @ B.T
        C = rng.normal(size=(p, c))
        W = solve_scaled_sylvester(d, lam, G, C)
        W_or = kron_sylvester_oracle(d, lam, G, C)
        assert np.abs(W - W_or).max() <= 1e-8 * max(1.0, np.abs(W_or).max())


def test_sylvester_residual_many_instances():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        d = rng.uniform(0.05, 10.0, size=p)
        lam = float(rng.uniform(1e-3, 10.0))
        B = rng.normal(size=(c, c + 1))
        G = B @ B.T
        C = rng.normal(size=(p, c)) * rng.uniform(0.1, 10.0)
        W = solve_scaled_sylvester(d, lam, G, C)
        resid = lam * d[:, None] * W + W @ G - C
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(C))


def test_sylvester_rejects_bad_inputs():
    C = np.ones((2, 2))
    with pytest.raises(ValueError):
        solve_scaled_sylvester(np.array([1.0, -1.0]), 1.0, np.eye(2), C)
    with pytest.raises(ValueError):
        solve_scaled_sylvester(np.ones(2), -1.0, np.eye(2), C)
    with pytest.raises(ValueError):
        solve_scaled_sylvester(np.ones(2), 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]), C)
    # lam*d + min eig below the pencil floor
    with pytest.raises(NumericError):
        solve_scaled_sylvester(np.ones(2), 1e-13, np.zeros((2, 2)), C)
    # a non-finite entry anywhere is a numeric failure, not a bad argument
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            solve_scaled_sylvester(np.array([1.0, bad]), 1.0, np.eye(2), C)
        with pytest.raises(NumericError, match="non-finite"):
            solve_scaled_sylvester(np.ones(2), 1.0,
                                   np.array([[1.0, bad], [bad, 1.0]]), C)
        with pytest.raises(NumericError, match="non-finite"):
            solve_scaled_sylvester(np.ones(2), 1.0, np.eye(2),
                                   np.array([[1.0, 0.0], [bad, 1.0]]))


# -------------------------------------------------------- soft threshold


def test_soft_threshold_examples():
    A = np.array([[3.0, -0.5], [0.2, -2.0]])
    out = soft_threshold(A, 1.0)
    np.testing.assert_allclose(out, [[2.0, 0.0], [0.0, -1.0]], atol=0)
    np.testing.assert_allclose(soft_threshold(A, 0.0), A, atol=0)
    tau = np.array([[1.0, 0.0], [0.1, 3.0]])  # one threshold per entry
    np.testing.assert_allclose(soft_threshold(A, tau),
                               [[2.0, -0.5], [0.1, 0.0]], atol=1e-15)
    with pytest.raises(ValueError):
        soft_threshold(A, -0.1)
    with pytest.raises(ValueError):
        soft_threshold(A, np.array([[1.0, -0.1], [0.0, 0.0]]))


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = rng.normal(size=7) * rng.uniform(0.1, 10)
        b = rng.normal(size=7) * rng.uniform(0.1, 10)
        tau = float(rng.uniform(0, 5))
        lhs = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


# ------------------------------------------------------- ksparse simplex


def test_ksparse_worked_example():
    s, xi = ksparse_simplex_min(np.array([0.1, 0.2, 0.4, 0.9]), 2)
    np.testing.assert_allclose(s, [0.6, 0.4, 0.0, 0.0], atol=1e-15)
    assert xi == pytest.approx(0.25, abs=1e-15)


def test_ksparse_k1_is_onehot_at_argmin():
    q = np.array([0.7, 0.3, 0.9, 0.5])
    s, _ = ksparse_simplex_min(q, 1)
    np.testing.assert_allclose(s, [0.0, 1.0, 0.0, 0.0], atol=0)


def test_ksparse_ties_inside_selection_share_weight():
    # entries 0 and 2 tie but both sit strictly below q_(k+1): no
    # degeneracy, and the tied entries get identical weights
    q = np.array([0.5, 0.1, 0.5, 0.9])
    s, _ = ksparse_simplex_min(q, 3)
    assert s[3] == 0.0 and s[0] == s[2] > 0.0 and s[1] > s[0]


def test_ksparse_degenerate_raises():
    with pytest.raises(NumericError):
        ksparse_simplex_min(np.array([1.0, 1.0, 1.0, 2.0]), 2)  # 0/0 gap
    with pytest.raises(NumericError):
        ksparse_simplex_min(np.array([0.1, 0.5, 0.5, 0.9]), 2)  # zero weight
    with pytest.raises(ValueError):
        ksparse_simplex_min(np.array([1.0, 2.0]), 2)  # k must be < n


def test_ksparse_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(1, n))
        q = rng.normal(size=n) * rng.uniform(0.1, 100)
        s, xi = ksparse_simplex_min(q, k)
        assert np.count_nonzero(s) == k
        assert s.min() >= 0.0
        assert abs(s.sum() - 1.0) <= 1e-12
        assert xi > 0


def test_ksparse_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(4, n)))
        q = rng.normal(size=n) * rng.uniform(0.5, 5.0)
        s, xi = ksparse_simplex_min(q, k)
        _, best_val = ksparse_enum_oracle(q, k, xi)
        ours = q @ s + xi * (s @ s)
        assert ours <= best_val + 1e-8


def test_ksparse_columns_match_scalar_kernel_bitwise():
    rng = np.random.default_rng(31)
    cases = [(rng.normal(size=(n, n)) * rng.uniform(0.1, 100), k, False)
             for n, k in ((5, 1), (12, 1), (12, 3), (10, 8), (20, 8),
                          (30, 12), (COLUMN_BLOCK + 40, 6))]
    # tied columns: small-integer costs and all-equal costs
    cases += [(rng.integers(0, 3, size=(n, n)).astype(float), k, True)
              for n, k in ((9, 1), (9, 4), (25, 8))]
    cases.append((np.ones((7, 7)), 2, True))
    for C, k, tied in cases:
        G, halves, perturbed = ksparse_column_loop(C, k)
        nbr, w, half, pert = columns(C, k)
        got = np.zeros_like(G)
        got[nbr, np.arange(C.shape[0])[:, None]] = w
        assert np.array_equal(got, G)
        assert np.array_equal(half, halves)
        assert np.array_equal(pert, perturbed)
        assert pert.any() == tied
    # the two-candidate tie of the update_S tie-break test: the perturbed
    # column 0 picks the lower index
    x = np.array([0.0, 1.0, -1.0])
    nbr, w, _, pert = columns(0.5 * (x[:, None] - x) ** 2, 1)
    assert pert[0] and nbr[0, 0] == 1 and w[0, 0] == 1.0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k=hst.integers(1, 8), extra=hst.integers(1, 62),
       top=hst.sampled_from([0, 1, 2, 3, 10 ** 6]), anchored=hst.booleans(),
       seed=hst.integers(0, 2 ** 32 - 1))
# n = 8 < 2(k + 1): a single group; n = 60: 8 groups and a tail of 4;
# anchored, small integers: ties that the perturbation keeps
@example(k=6, extra=1, top=2, anchored=False, seed=0)
@example(k=6, extra=53, top=10 ** 6, anchored=False, seed=1)
@example(k=3, extra=9, top=1, anchored=True, seed=2)
def test_ksparse_columns_match_the_scalar_kernel_on_integer_costs(
        k, extra, top, anchored, seed):
    # integer costs tie often, within and across the groups of the
    # two-level selection; an entry of 1e12 makes eta = 1e-12 max |q|
    # about 1, so some perturbed columns still tie and both kernels raise
    n = k + 1 + extra
    rng = np.random.default_rng(seed)
    C = rng.integers(0, top + 1, size=(n, n)).astype(float)
    if anchored:
        some = np.flatnonzero(rng.random(n) < 0.5)
        C[rng.integers(0, n, size=some.size), some] = 1e12
    cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    want, fails = [], False
    for j in cols:
        try:
            want.append(ksparse_column(C, j, k))
        except NumericError:
            fails = True
    event(f"g = {min(8, n // (k + 1))}, tail {n % min(8, n // (k + 1)) > 0}")
    event(f"degenerate: {any(c[2] for c in want)}, after perturbing: "
          f"{fails}")
    if fails:
        with pytest.raises(NumericError, match="degenerate when perturbed"):
            ksparse_simplex_columns(C.T[cols], cols, k)
        return
    nbr, w, half, pert = ksparse_simplex_columns(C.T[cols], cols, k)
    for r, (col, h, p) in enumerate(want):
        got = np.zeros(n)
        got[nbr[r]] = w[r]
        assert np.array_equal(got, col)
        assert half[r] == h and pert[r] == p


def test_ksparse_columns_rejects_bad_input():
    Q = np.arange(16.0).reshape(4, 4)   # row r holds column r's costs
    with pytest.raises(ValueError):
        columns(Q, 3)  # k must be < n - 1
    with pytest.raises(ValueError):
        ksparse_simplex_columns(Q[:3].copy(), np.arange(4), 1)
    Q[1, 2] = np.nan
    with pytest.raises(NumericError):
        ksparse_simplex_columns(Q.copy(), np.arange(4), 1)
    Q[1, 2] = 0.0
    Q[1, 1] = np.nan  # a column's own entry is left out
    ksparse_simplex_columns(Q.copy(), np.arange(4), 1)
    # any subset of columns, in any order: rows match the whole batch
    C = np.random.default_rng(5).normal(size=(9, 9))
    cols = np.array([7, 2, 4])
    some = ksparse_simplex_columns(C.T[cols], cols, 3)
    for got, want in zip(some, columns(C, 3)):
        assert np.array_equal(got, want[cols])


def test_ksparse_columns_refuse_nan_and_minus_inf_in_chunks_and_tail():
    # n = 23, k = 2: 7 chunks of 3 costs and a tail of 2; the check reads
    # the group minima and the tail, so both must see a bad entry
    n, k = 23, 2
    g = min(8, n // (k + 1))
    assert n % g > 0
    C = np.random.default_rng(8).normal(size=(n, n))
    for bad in (np.nan, -np.inf):
        for at in (5, g * (n // g), n - 1):   # a chunk, the tail twice
            Q = C.copy()
            Q[3, at] = bad
            with pytest.raises(NumericError, match="non-finite"):
                ksparse_simplex_columns(Q, np.arange(n), k)


def test_ksparse_columns_solve_plus_inf_outside_the_cheapest_only():
    n, k = 23, 2
    C = np.random.default_rng(9).normal(size=(n, n))
    want = ksparse_simplex_columns(C.copy(), np.arange(n), k)
    # a +inf that is not among its row's k+1 smallest costs is solved
    Q = C.copy()
    Q[np.arange(n), np.argmax(Q, axis=1)] = np.inf
    for got, exp in zip(ksparse_simplex_columns(Q, np.arange(n), k), want):
        assert np.array_equal(got, exp)
    # one among them is refused: row 0 has only k finite costs
    Q = C.copy()
    Q[0, k + 1:] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        ksparse_simplex_columns(Q, np.arange(n), k)
    # so is one in a degenerate row, whose eta it would make infinite
    Q = np.ones((n, n))
    Q[0, n - 1] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        ksparse_simplex_columns(Q, np.arange(n), k)


# ------------------------------------------------------------ simplex QP


def test_simplex_qp_single_view():
    np.testing.assert_allclose(simplex_qp(np.array([[3.0]]), np.array([-1.0])), [1.0])


def test_simplex_qp_identical_views_symmetric():
    # Q = t * ones, equal c: the objective is constant on the simplex; the
    # minimum-norm KKT solution on the full support is the uniform point.
    for V in (2, 3, 5):
        Q = 2.5 * np.ones((V, V))
        c = np.full(V, -1.0)
        np.testing.assert_allclose(simplex_qp(Q, c), np.full(V, 1.0 / V),
                                   atol=1e-9)


def test_simplex_qp_two_identical_best_views_share_a_face():
    # views 0 and 1 are copies and agree best with the consensus; view 2
    # fits worse, so the minimizer sits on the face a_2 = 0, split evenly.
    Q = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    c = np.array([-2.0, -2.0, -0.1])
    np.testing.assert_allclose(simplex_qp(Q, c), [0.5, 0.5, 0.0],
                               atol=1e-9)


def test_simplex_qp_hand_case():
    # min a^2 + b^2 st a+b=1  ->  (0.5, 0.5)
    x = simplex_qp(np.eye(2))
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-10)
    # strong pull toward the first coordinate
    x = simplex_qp(np.eye(2), np.array([-10.0, 0.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)


def test_simplex_qp_matches_grid_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        B = rng.normal(size=(3, 3))
        Q = B @ B.T
        c = rng.normal(size=3)
        x = simplex_qp(Q, c)
        _, val_or = simplex_grid_oracle(Q, c)
        assert x @ Q @ x + c @ x <= val_or + 5e-3


def test_simplex_qp_kkt_residual_random():
    rng = np.random.default_rng(29)
    for _ in range(200):
        V = int(rng.integers(2, 9))
        B = rng.normal(size=(V, V + 1))
        Q = B @ B.T * rng.uniform(0.1, 10)
        c = rng.normal(size=V) * rng.uniform(0.1, 10)
        x = simplex_qp(Q, c)
        assert x.min() >= 0 and abs(x.sum() - 1.0) <= 1e-10
        g = 2 * Q @ x + c
        from climfs.numkit import _project_simplex
        assert np.abs(x - _project_simplex(x - g)).max() <= 1e-8


def test_simplex_qp_rejects_indefinite():
    with pytest.raises(NumericError):
        simplex_qp(np.array([[1.0, 0.0], [0.0, -1.0]]))


# ------------------------------------------------------------- laplacian


def random_graph(rng, n, k):
    nbr = np.stack([rng.choice(np.delete(np.arange(n), j), size=k,
                               replace=False) for j in range(n)])
    return nbr, rng.uniform(0, 1, size=(n, k))


def test_laplacian_small_graph():
    # column 1 weighs row 0 by 1; column 0 lists row 1 with weight 0
    nbr, w = np.array([[1], [0]]), np.array([[0.0], [1.0]])
    np.testing.assert_allclose(laplacian(nbr, w), [[0.5, -0.5], [-0.5, 0.5]])


def test_laplacian_symmetrized_is_psd():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n - 1))
        nbr, w = random_graph(rng, n, k)
        L = laplacian(nbr, w)
        A = np.zeros((n, n))
        A[nbr, np.arange(n)[:, None]] = w
        assert np.array_equal(L, L.T)
        np.testing.assert_allclose(L, dense_laplacian(A), rtol=0,
                                   atol=1e-15)
        eigs = np.linalg.eigvalsh(L)
        assert eigs.min() >= -1e-10
        np.testing.assert_allclose(L @ np.ones(n), 0.0, atol=1e-10)


def test_laplacian_rejects_negative_entries():
    with pytest.raises(ValueError):
        laplacian(*sparse(np.array([[0.0, -0.1], [0.1, 0.0]]), 1))


def ipl_forms(nbr, w):
    """I + L of the graph as a `sym_csr` matrix and as a dense array."""
    K = sym_csr(nbr, -0.5 * w, 1.0 + sym_degrees(nbr, w))
    return K, K.toarray()


def test_identity_plus_laplacian_matches_dense():
    # dense up to COLUMN_BLOCK, with the sym_csr entries bit for bit, and
    # a sym_csr matrix above it
    rng = np.random.default_rng(41)
    graphs = []
    for _ in range(50):
        n = int(rng.integers(3, 12))
        graphs.append(random_graph(rng, n, int(rng.integers(1, n - 1))))
    graphs += [random_graph(rng, n, 6)
               for n in (COLUMN_BLOCK, COLUMN_BLOCK + 1)]
    for nbr, w in graphs:
        n = nbr.shape[0]
        K = identity_plus_laplacian(nbr, w)
        csr, dense = ipl_forms(nbr, w)
        if n <= COLUMN_BLOCK:
            assert isinstance(K, np.ndarray) and K.shape == (n, n)
            assert np.array_equal(K, dense) and np.array_equal(K, K.T)
        else:
            assert K.format == "csr" and K.nnz <= n * (2 * nbr.shape[1] + 1)
            assert np.array_equal(K.toarray(), dense)
        np.testing.assert_allclose(dense, np.eye(n) + laplacian(nbr, w),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_identity_plus_laplacian_rejects_bad_weights(bad):
    # in the dense form (n=6) and in the sparse one
    for n in (6, COLUMN_BLOCK + 1):
        nbr, w = random_graph(np.random.default_rng(42), n, 2)
        w[3, 1] = bad
        with pytest.raises(NumericError):
            identity_plus_laplacian(nbr, w)
        with pytest.raises(NumericError):
            solve_identity_plus_laplacian(nbr, w, np.ones((1, n)))


@pytest.mark.parametrize("n", [COLUMN_BLOCK, COLUMN_BLOCK + 1])
def test_solve_identity_plus_laplacian_on_both_sides_of_column_block(n):
    # one Cholesky solve of the dense I + L up to COLUMN_BLOCK (no
    # conjugate gradient step), pcg on the sparse one above it; either way
    # the I + L it returns is identity_plus_laplacian's
    rng = np.random.default_rng(47)
    nbr, w = random_graph(rng, n, 6)
    B = rng.normal(size=(3, n))
    X, K, steps = solve_identity_plus_laplacian(nbr, w, B)
    _, dense = ipl_forms(nbr, w)
    if n <= COLUMN_BLOCK:
        assert steps == 0 and np.array_equal(K, dense)
    else:
        assert 0 < steps < numkit.CG_MAXITER
        assert np.array_equal(K.toarray(), dense)
    expect = np.linalg.solve(dense, B.T).T
    assert np.abs(X - expect).max() <= 1e-12 * np.abs(expect).max()


# ------------------------------------------------------------------- pcg


def test_pcg_matches_dense_solve():
    # on the sym_csr I + L and on the dense one, which the fallback of
    # the imputation step takes as its operator up to COLUMN_BLOCK
    rng = np.random.default_rng(43)
    for n, k in ((5, 2), (40, 3), (300, 6)):
        forms = ipl_forms(*random_graph(rng, n, k))
        B = rng.normal(size=(4, n)) * np.array([[1.0], [1e-6], [1e6], [0.0]])
        expect = np.linalg.solve(forms[1], B.T).T
        for K in forms:
            X, steps = pcg(K, B)
            assert 0 < steps < numkit.CG_MAXITER
            assert np.array_equal(X[3], np.zeros(n))
            # a residual of CG_RTOL ||b_i|| and rounding in the product
            resid = np.linalg.norm(X @ K - B, axis=1)
            assert (resid <= 10 * CG_RTOL * np.linalg.norm(B, axis=1)).all()
            for i in range(3):
                assert np.abs(X[i] - expect[i]).max() \
                    <= 1e-11 * np.abs(expect[i]).max()


def test_pcg_restricted_to_free_entries():
    rng = np.random.default_rng(44)
    m, n = 5, 30
    forms = ipl_forms(*random_graph(rng, n, 3))
    free = (rng.random((m, n)) < 0.5).astype(float)
    free[0] = 0.0       # nothing free
    free[1] = 0.0
    free[1, 7] = 1.0    # one free entry
    B, start = free * rng.normal(size=(m, n)), free * rng.normal(size=(m, n))
    dense = forms[1]
    for K in forms:
        X, _ = pcg(K, B, start, free)
        for i in range(m):
            F = free[i] == 1.0
            assert np.array_equal(X[i, ~F], np.zeros((~F).sum()))
            if F.any():
                expect = np.linalg.solve(dense[np.ix_(F, F)], B[i, F])
                assert np.abs(X[i, F] - expect).max() \
                    <= 1e-11 * np.abs(expect).max()


def test_pcg_zero_right_hand_side_is_done_at_step_0():
    rng = np.random.default_rng(45)
    K = identity_plus_laplacian(*random_graph(rng, 10, 2))
    with np.errstate(all="raise"):   # no 0/0 on the zero rows
        X, steps = pcg(K, np.zeros((2, 10)), rng.normal(size=(2, 10)))
    assert steps == 0 and np.array_equal(X, np.zeros((2, 10)))


def test_pcg_raises_at_the_step_cap(monkeypatch):
    rng = np.random.default_rng(46)
    K = identity_plus_laplacian(*random_graph(rng, 40, 3))
    B = rng.normal(size=(2, 40))
    monkeypatch.setattr(numkit, "CG_MAXITER", 1)
    with pytest.raises(NumericError, match="conjugate gradients"):
        pcg(K, B)


# ------------------------------------------------------------- sq_dists


def test_sq_dists_matches_pairwise_loop():
    # half squared distances, within 1e-12 of each row's largest entry;
    # a zero-row X (no features) gives zeros
    rng = np.random.default_rng(37)
    for shape in ((1, 1), (3, 5), (6, 2), (0, 4), (50, 40)):
        X = rng.normal(size=shape)
        want = np.array([[float((X[:, i] - X[:, j]) @ (X[:, i] - X[:, j]))
                          for j in range(shape[1])]
                         for i in range(shape[1])]) / 2.0
        cols = np.arange(shape[1])
        R = half_sq_factors(X)
        assert R.shape == (shape[0] + 2, shape[1])
        assert np.array_equal(R[:-2], -X) and (R[-2] == 1.0).all()
        scale = want.max(axis=1, keepdims=True)
        out = np.empty((shape[1], shape[1]))
        assert half_sq_dists(R, cols, out) is out
        assert (np.abs(out - want) <= 1e-12 * scale).all()
        # rows in any order
        half_sq_dists(R, cols[::-1], out)
        assert (np.abs(out - want[::-1]) <= 1e-12 * scale[::-1]).all()
    # duplicate columns, as mean imputation makes them, tie exactly in
    # every row, and rounding below zero is clamped to 0. (At some widths,
    # such as 300, the BLAS rounds its last few columns in another order,
    # as it did the Gram product before; 400 is not one of them.)
    for d in (50, 3):
        X = rng.normal(size=(d, 400)) * 3.0
        X[:, 300:] = X[:, [7]]
        D = half_sq_dists(half_sq_factors(X), np.arange(COLUMN_BLOCK),
                          np.empty((COLUMN_BLOCK, 400)))
        assert (D[:, 300:] == D[:, [7]]).all() and D.min() >= 0.0
    # the oracle's whole matrix is the COLUMN_BLOCK-aligned blocks of rows,
    # bit for bit
    X = rng.normal(size=(7, COLUMN_BLOCK + 40))
    D = whole_half_sq_dists(X)
    assert D.shape == (X.shape[1], X.shape[1])
    for r in (0, COLUMN_BLOCK):
        cols = np.arange(r, min(r + COLUMN_BLOCK, X.shape[1]))
        assert np.array_equal(half_sq_dists(half_sq_factors(X), cols,
                                            np.empty((cols.size, X.shape[1]))),
                              D[cols])


# ------------------------------------------------------------------ adam


def test_adam_first_step_hand_value():
    m, v, step, rate = adam_step(np.zeros(1), np.zeros(1), np.array([1.0]),
                                 0.1, 1)
    # mhat = vhat = 1 after bias correction -> step = rate = lr / (1 + eps)
    assert step[0] == pytest.approx(0.1 / (1.0 + 1e-8), rel=1e-12)
    assert rate[0] == pytest.approx(0.1 / (1.0 + 1e-8), rel=1e-12)
    assert m[0] == pytest.approx(0.1) and v[0] == pytest.approx(1e-3)


def test_adam_zero_gradient_zero_step():
    zeros = np.zeros((3, 2))
    _, _, step, rate = adam_step(zeros, zeros, zeros, 1e-3, 1)
    np.testing.assert_allclose(step, 0.0, atol=0)
    # vhat = 0, so the rate is lr / eps
    np.testing.assert_array_equal(rate, 1e-3 / ADAM_EPS)


def test_adam_constant_gradient_step_approaches_lr():
    m = v = np.zeros(1)
    for t in range(1, 5001):
        m, v, step, _ = adam_step(m, v, np.array([2.0]), 0.05, t)
    assert step[0] == pytest.approx(0.05, rel=1e-3)


def test_adam_rate_matches_the_bias_corrected_second_moment():
    rng = np.random.default_rng(0)
    m = v = np.zeros((4, 3))
    for t, lr in enumerate((1e-3, 0.01, 0.5), start=1):
        m_in, v_in, kept = m, v, (m.copy(), v.copy())
        m, v, step, rate = adam_step(m, v, rng.normal(size=(4, 3)), lr, t)
        # the moments come back advanced; the ones passed in are unchanged
        assert np.array_equal(m_in, kept[0]) and np.array_equal(v_in, kept[1])
        assert not np.array_equal(m, m_in)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        np.testing.assert_array_equal(rate, lr / (np.sqrt(vhat) + ADAM_EPS))
        np.testing.assert_array_equal(
            step, lr * mhat / (np.sqrt(vhat) + ADAM_EPS))


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(2), np.zeros(3), 1e-3, 1)
