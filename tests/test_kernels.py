"""The numpy kernels against scipy.sparse and brute force: the `CSR` products,
row slices and column append, bit for bit; triangles and core numbers of the
follow graph; the co-membership pool of the stacked model; and the hinge-loss
MRF's matrix-free Hessian."""

import itertools

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from relspam.features import CSR, compute_graph_feature_table, GRAPH_COLUMNS
from relspam.hinge import HingeWeights, ground_rules
from relspam.stacking import NEUTRAL_SCORE, compute_pseudo_features

from tables import dense_coefficients, hub_table, over, scipy_of

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def matrices(draw, max_rows=7, max_cols=6):
    """A dense array with empty rows and columns among its shapes and rows,
    and the `CSR` of its nonzero entries."""
    n, d = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    dense = np.array([[draw(st.one_of(st.just(0.0), finite)) for _ in range(d)]
                      for _ in range(n)], dtype=float).reshape(n, d)
    return dense, CSR.from_dense(dense)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_csr(m: CSR, reference: sp.csr_matrix):
    reference.sort_indices()
    assert m.shape == reference.shape
    assert np.array_equal(m.indptr, reference.indptr)
    assert np.array_equal(m.indices, reference.indices)
    assert_same_bits(m.data, reference.data)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_products_equal_scipy_bit_for_bit(m, data):
    dense, X = m
    S = sp.csr_matrix(dense)
    w = np.array(data.draw(st.lists(finite, min_size=X.shape[1], max_size=X.shape[1])))
    u = np.array(data.draw(st.lists(finite, min_size=X.shape[0], max_size=X.shape[0])))
    product, adjoint = X.products()
    assert_same_bits(X.dot(w), S @ w)
    assert_same_bits(product(w), S @ w)
    assert_same_bits(adjoint(u), S.T.tocsr() @ u)


@settings(max_examples=200, deadline=None)
@given(matrices(), matrices(max_cols=3), st.data())
def test_row_slices_and_column_append_equal_scipy(left, right, data):
    dense, X = left
    assert_same_csr(X, sp.csr_matrix(dense))
    a = data.draw(st.integers(0, X.shape[0]))
    b = data.draw(st.integers(a, X.shape[0]))
    assert_same_csr(X.rows(a, b), sp.csr_matrix(dense)[a:b])
    # the stacked model appends as many rows of pseudo columns
    extra = CSR.from_dense(np.resize(right[0], (X.shape[0], right[0].shape[1])))
    assert_same_csr(X.hstack(extra), sp.hstack([sp.csr_matrix(dense), scipy_of(extra)],
                                               format="csr"))
    cols = data.draw(st.lists(st.integers(0, max(X.shape[1] - 1, 0)), unique=True)
                     if X.shape[1] else st.just([]))
    block = np.asarray(sp.csr_matrix(dense).tocsc()[:, cols].todense())
    assert_same_bits(X.dense_columns(cols), block)
    # so do the column statistics the fit standardizes by, which depend on the layout
    assert_same_bits(X.dense_columns(cols).std(axis=0), block.std(axis=0))


@st.composite
def follow_lists(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    return draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=30))


@settings(max_examples=200, deadline=None)
@given(follow_lists())
def test_triangles_and_cores_match_brute_force(follows):
    adj = {}
    for a, b in follows:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    triangles = dict.fromkeys(adj, 0)
    for a, b, c in itertools.combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            for v in (a, b, c):
                triangles[v] += 1
    core = dict.fromkeys(adj, 0)
    for k in range(1, len(adj)):
        alive = set(adj)
        while any(len(adj[v] & alive) < k for v in alive):
            alive = {v for v in alive if len(adj[v] & alive) >= k}
        for v in alive:
            core[v] = k
    table = compute_graph_feature_table(follows)
    t, k = GRAPH_COLUMNS.index("triangle_count"), GRAPH_COLUMNS.index("k_core")
    assert {v: row[t] for v, row in table.items()} == triangles
    assert {v: row[k] for v, row in table.items()} == core


@st.composite
def pools(draw):
    """(rows, groups, scores, relations): groups over n positions of two
    relations, NaN scores among them, and query rows in any order."""
    n = draw(st.integers(2, 12))
    groups = [(relation, str(k), draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True)))
              for k, relation in enumerate(draw(st.lists(st.sampled_from(["link", "user"]),
                                                         max_size=6)))]
    scores = over(n, {i: draw(st.floats(0, 1)) for i in range(n) if draw(st.booleans())})
    rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.array(rows, dtype=np.int64), hub_table(*groups), scores, ["link", "text", "user"]


@settings(max_examples=200, deadline=None)
@given(pools())
def test_pseudo_features_match_the_incidence_product(pool):
    rows, groups, scores, relations = pool
    got = compute_pseudo_features(rows, groups, scores, relations)
    want = np.full((len(rows), len(relations)), NEUTRAL_SCORE)
    for j, rel in enumerate(relations):
        if rel not in groups.relations:
            continue
        edge = groups.relation == groups.relations.index(rel)
        incidence = sp.csr_matrix((np.ones(edge.sum()), (groups.members[edge], groups.group[edge])),
                                  shape=(len(scores), len(groups)))
        co = incidence[rows] @ incidence.T
        co.sort_indices()
        for i in range(len(rows)):
            members = co.indices[co.indptr[i]:co.indptr[i + 1]]
            kept = scores[members[(members != rows[i]) & ~np.isnan(scores[members])]]
            if len(kept):
                want[i, j] = np.bincount(np.zeros(len(kept), dtype=np.int64), weights=kept)[0] \
                    / len(kept)
    assert_same_bits(got, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_hessian_product_and_diagonal_match_the_dense_matrix(n, data):
    groups = hub_table(*((relation, str(k), data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                                                unique=True)))
                         for k, relation in enumerate(["user", "text", "user"][
                             :data.draw(st.integers(1, 3))])))
    priors = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    observed = over(n, {i: 1.0 for i in data.draw(st.lists(st.integers(0, n - 1), unique=True))})
    model = ground_rules(priors, groups, HingeWeights(neg=0.5, relation_d={"text": 2.0}),
                         observed=observed)
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    h = rng.random(len(model.const)) * (rng.random(len(model.const)) < 0.7)
    v = rng.normal(size=model.n_vars)
    A = dense_coefficients(model)
    H = A.T @ np.diag(h) @ A
    product, diagonal = model.hessian(h)
    np.testing.assert_allclose(product(v), H @ v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(diagonal, np.diag(H), rtol=0, atol=1e-12)
