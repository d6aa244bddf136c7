import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relspam.data_model import ConfigError, DataError, Group
from relspam.mrf import (
    FactorGraph,
    build_factor_graph,
    exact_marginals,
    infer_posteriors,
    loopy_bp,
    loopy_bp_batch,
)


def group(relation, key, members):
    return Group(relation=relation, key=key, member_ids=tuple(sorted(members)))


def message_graph(ids, priors, factors, epsilons) -> FactorGraph:
    """A graph of message variables only, every factor of one relation."""
    return FactorGraph(list(ids), len(ids), np.array([(1.0 - p, p) for p in priors]).reshape(-1, 2),
                       np.array(factors, dtype=np.int64).reshape(-1, 2),
                       np.array(epsilons, dtype=float), np.zeros(len(epsilons), dtype=np.int64),
                       ["user"])


def build_pairwise_reference(priors: dict, g: Group, epsilon: float) -> FactorGraph:
    """Direct message-message construction: one factor per member pair.

    Reference model used only to demonstrate the quadratic edge blowup the
    hub construction avoids.
    """
    pairs = list(itertools.combinations(range(len(g)), 2))
    return message_graph(g.member_ids, [priors[mid] for mid in g.member_ids], pairs,
                         [epsilon] * len(pairs))


class TestBuild:
    def test_six_member_group_shape(self):
        priors = {f"m{i}": 0.6 for i in range(6)}
        graph = build_factor_graph(priors, [group("user", "u", priors)], {"user": 0.1})
        assert len(graph.ids) == 7
        assert len(graph.factors) == 6

    def test_message_in_no_group_excluded(self):
        priors = {"a": 0.9, "b": 0.8, "c": 0.3}
        result = infer_posteriors(priors, [group("user", "u", ["a", "b"])], {"user": 0.1})
        assert result.scores["c"] == 0.3
        assert result.n_variables == 3  # a, b, hub

    def test_epsilon_bounds_enforced(self):
        priors = {"a": 0.5, "b": 0.5}
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ConfigError):
                build_factor_graph(priors, [group("user", "u", ["a", "b"])], {"user": bad})

    def test_extreme_priors_clamped(self, caplog):
        # gold labels enter as 0/1 priors on every call, so clamping is no warning
        priors = {"a": 1.0, "b": 0.0}
        with caplog.at_level("DEBUG", logger="relspam.mrf"):
            graph = build_factor_graph(priors, [group("user", "u", ["a", "b"])], {"user": 0.1})
        assert (graph.phi > 0).all()
        assert [r.levelname for r in caplog.records] == ["DEBUG"]

    def test_missing_prior_rejected(self):
        with pytest.raises(DataError):
            build_factor_graph({"a": 0.5}, [group("user", "u", ["a", "b"])], {"user": 0.1})

    def test_bipartite_structure(self):
        priors = {f"m{i}": 0.5 for i in range(5)}
        groups = [group("user", "u", ["m0", "m1", "m2"]), group("text", "t", ["m2", "m3", "m4"])]
        graph = build_factor_graph(priors, groups, 0.1)
        for a, b in graph.factors:
            kinds = {a < graph.n_messages, b < graph.n_messages}  # is each a message?
            assert kinds == {True, False}

    def test_edge_count_linear_in_group_size(self):
        priors = {f"m{i:03d}": 0.6 for i in range(100)}
        g = group("link", "l", priors)
        hub_graph = build_factor_graph(priors, [g], 0.1)
        pairwise = build_pairwise_reference(priors, g, 0.1)
        assert len(hub_graph.factors) == 100
        assert len(pairwise.factors) == 4950


class TestExactMarginals:
    def test_empty_graph(self):
        assert exact_marginals(message_graph([], [], [], [])) == {}

    def test_single_unary_variable(self):
        graph = message_graph(["a"], [0.7], [], [])
        assert exact_marginals(graph)["a"] == pytest.approx(0.7)

    def test_hand_expanded_eight_term_sum(self):
        # two messages with prior 0.85 joined through one hub, eps = 0.1:
        # the eight assignment weights sum to Z = 0.3284, the four terms with
        # the first message spammy sum to 0.3077, the hub-spammy terms to 0.3042
        priors = {"m1": 0.85, "m2": 0.85}
        graph = build_factor_graph(priors, [group("user", "u", ["m1", "m2"])], {"user": 0.1})
        marg = exact_marginals(graph)
        assert marg["m1"] == pytest.approx(0.3077 / 0.3284, abs=1e-12)
        assert marg["m2"] == pytest.approx(0.3077 / 0.3284, abs=1e-12)
        assert marg["hub:user:u"] == pytest.approx(0.3042 / 0.3284, abs=1e-12)

    def test_size_guard(self):
        graph = message_graph([f"v{i}" for i in range(21)], [0.5] * 21, [], [])
        with pytest.raises(DataError):
            exact_marginals(graph)


def random_tree_graph(rng, n_vars):
    """Random tree over message/hub variables with random priors and epsilons."""
    priors = [rng.uniform(0.05, 0.95) for _ in range(n_vars)]
    factors, epsilons = [], []
    for i in range(1, n_vars):
        factors.append((rng.randrange(i), i))
        epsilons.append(rng.uniform(0.01, 0.49))
    return message_graph([f"v{i}" for i in range(n_vars)], priors, factors, epsilons)


class TestLoopyBP:
    def test_isolated_variable_keeps_prior(self):
        priors = {"a": 0.85}
        result = infer_posteriors(priors, [], 0.1)
        assert result.scores["a"] == 0.85
        assert result.converged

    def test_shared_hub_pushes_posteriors(self):
        priors = {"m1": 0.85, "m2": 0.85}
        groups = [group("user", "u", ["m1", "m2"])]
        graph = build_factor_graph(priors, groups, {"user": 0.1})
        bp = loopy_bp(graph, max_iters=500, tol=1e-12)
        exact = exact_marginals(graph)
        assert bp.marginals["m1"] > 0.85
        assert bp.marginals["m1"] == pytest.approx(exact["m1"], abs=1e-6)
        assert bp.marginals["m2"] == pytest.approx(exact["m2"], abs=1e-6)

    def test_tree_exactness(self):
        rng = random.Random(77)
        for _ in range(100):
            graph = random_tree_graph(rng, rng.randint(2, 10))
            bp = loopy_bp(graph, max_iters=500, tol=1e-13)
            exact = exact_marginals(graph)
            for vid, m in exact.items():
                assert bp.marginals[vid] == pytest.approx(m, abs=1e-9)

    def test_monotone_group_push(self):
        prev = 0.85
        for n in range(2, 9):
            priors = {f"m{i}": 0.85 for i in range(n)}
            graph = build_factor_graph(priors, [group("user", "u", priors)], 0.1)
            exact = exact_marginals(graph)
            bp = loopy_bp(graph, max_iters=500, tol=1e-12)
            assert bp.marginals["m0"] == pytest.approx(exact["m0"], abs=1e-6)
            assert exact["m0"] >= prev - 1e-12
            prev = exact["m0"]

    def test_equal_priors_get_equal_posteriors(self):
        priors = {f"m{i}": 0.7 for i in range(5)}
        result = infer_posteriors(priors, [group("text", "t", priors)], 0.2)
        values = {round(v, 12) for v in result.scores.values()}
        assert len(values) == 1

    def test_uninformative_epsilon_limit(self):
        priors = {"m1": 0.85, "m2": 0.6, "m3": 0.2}
        groups = [group("user", "u", priors)]
        result = infer_posteriors(priors, groups, 0.4999, max_iters=2000, tol=1e-12)
        for mid, p in priors.items():
            assert result.scores[mid] == pytest.approx(p, abs=1e-3)

    def test_label_flip_symmetry(self):
        rng = random.Random(5)
        priors = {f"m{i}": rng.uniform(0.05, 0.95) for i in range(6)}
        groups = [group("user", "u", ["m0", "m1", "m2"]), group("text", "t", ["m2", "m3", "m4", "m5"])]
        fwd = infer_posteriors(priors, groups, 0.15, max_iters=300, tol=1e-10)
        flipped = {mid: 1.0 - p for mid, p in priors.items()}
        rev = infer_posteriors(flipped, groups, 0.15, max_iters=300, tol=1e-10)
        for mid in priors:
            assert rev.scores[mid] == pytest.approx(1.0 - fwd.scores[mid], abs=1e-12)

    def test_nonconvergence_returns_flag_not_exception(self):
        priors = {f"m{i}": 0.9 for i in range(4)}
        groups = [group("user", "u", priors), group("text", "t", priors)]
        graph = build_factor_graph(priors, groups, 0.05)
        result = loopy_bp(graph, max_iters=1, tol=1e-15)
        assert result.converged is False
        assert set(result.marginals) == set(graph.ids)

    def test_loopy_graph_close_to_exact(self):
        # two overlapping groups form a cycle; loopy BP should still land close
        priors = {"a": 0.8, "b": 0.75, "c": 0.3}
        groups = [group("user", "u", ["a", "b", "c"]), group("text", "t", ["a", "b"])]
        graph = build_factor_graph(priors, groups, 0.2)
        bp = loopy_bp(graph, max_iters=2000, tol=1e-12)
        exact = exact_marginals(graph)
        for vid in exact:
            assert bp.marginals[vid] == pytest.approx(exact[vid], abs=5e-2)


def reference_factor_graph(priors: dict, groups: list, epsilons) -> FactorGraph:
    """The hub graph built one variable and one factor at a time, as
    build_factor_graph once did."""
    if isinstance(epsilons, (int, float)):
        epsilons = {g.relation: float(epsilons) for g in groups}
    relations = sorted({g.relation for g in groups})
    ids, phi, factors, eps, relation = [], [], [], [], []
    index = {}
    for mid in sorted({mid for g in groups for mid in g.member_ids}):
        p = min(max(priors[mid], 1e-6), 1.0 - 1e-6)
        index[mid] = len(ids)
        ids.append(mid)
        phi.append((1.0 - p, p))
    n_messages = len(ids)
    for g in groups:
        h = len(ids)
        ids.append(f"hub:{g.relation}:{g.key}")
        phi.append((0.5, 0.5))
        for mid in g.member_ids:
            factors.append((index[mid], h))
            eps.append(epsilons.get(g.relation, 0.1) if isinstance(epsilons, dict) else 0.1)
            relation.append(relations.index(g.relation))
    return FactorGraph(ids, n_messages, np.array(phi).reshape(-1, 2),
                       np.array(factors, dtype=np.int64).reshape(-1, 2), np.array(eps, dtype=float),
                       np.array(relation, dtype=np.int64), relations)


def reference_loopy_bp(graph: FactorGraph, max_iters: int, damping: float = 0.5, tol: float = 1e-6):
    """Per-edge-list BP with unbuffered np.add.at accumulation, as loopy_bp once ran."""
    phi = graph.phi
    a_idx, b_idx = graph.factors[:, 0], graph.factors[:, 1]
    eps = graph.epsilon
    msg_ab = np.full((len(graph.factors), 2), 0.5)
    msg_ba = np.full((len(graph.factors), 2), 0.5)
    log_phi = np.log(phi)

    def beliefs(m_ab, m_ba):
        bl = log_phi.copy()
        np.add.at(bl, a_idx, np.log(m_ba))
        np.add.at(bl, b_idx, np.log(m_ab))
        bl -= bl.max(axis=1, keepdims=True)
        bel = np.exp(bl)
        return bel / bel.sum(axis=1, keepdims=True)

    converged, it = False, 0
    for it in range(1, max_iters + 1):
        bel = beliefs(msg_ab, msg_ba)
        out_a = bel[a_idx] / msg_ba
        out_b = bel[b_idx] / msg_ab
        new_ab = np.empty_like(msg_ab)
        new_ab[:, 0] = (1.0 - eps) * out_a[:, 0] + eps * out_a[:, 1]
        new_ab[:, 1] = eps * out_a[:, 0] + (1.0 - eps) * out_a[:, 1]
        new_ba = np.empty_like(msg_ba)
        new_ba[:, 0] = (1.0 - eps) * out_b[:, 0] + eps * out_b[:, 1]
        new_ba[:, 1] = eps * out_b[:, 0] + (1.0 - eps) * out_b[:, 1]
        new_ab /= new_ab.sum(axis=1, keepdims=True)
        new_ba /= new_ba.sum(axis=1, keepdims=True)
        new_ab = damping * msg_ab + (1.0 - damping) * new_ab
        new_ba = damping * msg_ba + (1.0 - damping) * new_ba
        delta = max(np.abs(new_ab - msg_ab).max(), np.abs(new_ba - msg_ba).max())
        msg_ab, msg_ba = new_ab, new_ba
        if delta < tol:
            converged = True
            break
    bel = beliefs(msg_ab, msg_ba)
    return bel[:, 1].tolist(), converged, it


RELATIONS = ("user", "text", "link")
EPSILONS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)


@st.composite
def hub_inputs(draw):
    ids = [f"m{i}" for i in range(draw(st.integers(2, 9)))]
    groups = []
    for relation in RELATIONS:
        for key in ("k0", "k1", "k2")[:draw(st.integers(0, 3))]:
            members = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=len(ids), unique=True))
            groups.append(group(relation, key, members))
    draw(st.randoms()).shuffle(groups)
    prior = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    priors = {mid: draw(prior) for mid in ids}
    return priors, groups


# a per-relation dict that may leave relations out (they take 0.1), or one shared value
epsilon_settings = st.one_of(
    st.sampled_from(EPSILONS),
    st.dictionaries(st.sampled_from(RELATIONS), st.sampled_from(EPSILONS)))


@settings(max_examples=80, deadline=None)
@given(hub_inputs(), epsilon_settings, st.sampled_from([(100, 1e-6), (3, 1e-15)]))
def test_array_graph_matches_per_object_reference(inputs, epsilons, stop):
    priors, groups = inputs
    graph = build_factor_graph(priors, groups, epsilons)
    ref = reference_factor_graph(priors, groups, epsilons)
    assert (graph.ids, graph.n_messages, graph.relations) == (ref.ids, ref.n_messages, ref.relations)
    for name in ("phi", "factors", "epsilon", "relation"):
        assert getattr(graph, name).shape == getattr(ref, name).shape
        assert getattr(graph, name).tolist() == getattr(ref, name).tolist()

    # the array graph, the same graph built by hand, and the per-edge loop agree bit for bit
    max_iters, tol = stop
    if len(ref.factors):
        expected = reference_loopy_bp(ref, max_iters, tol=tol)
    else:
        expected = (ref.phi[:, 1] / (ref.phi[:, 0] + ref.phi[:, 1])).tolist(), True, 0
    for g in (graph, ref):
        bp = loopy_bp(g, max_iters=max_iters, tol=tol)
        assert (list(bp.marginals.values()), bp.converged, bp.n_iters) == expected
        assert type(bp.converged) is bool and type(bp.n_iters) is int


@settings(max_examples=80, deadline=None)
@given(hub_inputs(), st.lists(epsilon_settings, min_size=1, max_size=6),
       st.sampled_from([(100, 1e-6), (12, 1e-9), (2, 1e-15)]))
def test_batched_rows_equal_single_runs_bit_for_bit(inputs, settings_list, stop):
    priors, groups = inputs
    max_iters, tol = stop
    graph = build_factor_graph(priors, groups, 0.1)
    spam, n_iters, converged = loopy_bp_batch(graph, settings_list, max_iters=max_iters, tol=tol)
    assert spam.shape == (len(settings_list), len(graph.ids))
    for eps, row, row_iters, row_converged in zip(settings_list, spam, n_iters, converged):
        single = loopy_bp(build_factor_graph(priors, groups, eps), max_iters=max_iters, tol=tol)
        assert row.tolist() == list(single.marginals.values())
        assert (row_iters, row_converged) == (single.n_iters, single.converged)


def test_batch_rows_stop_at_their_own_iteration():
    priors = {f"m{i}": 0.2 + 0.1 * i for i in range(6)}
    groups = [group("user", "u", ["m0", "m1", "m2", "m3"]), group("text", "t", ["m2", "m3", "m4", "m5"]),
              group("link", "l", ["m0", "m5"])]
    graph = build_factor_graph(priors, groups, 0.1)
    # alone, these rows converge in 17, 73 and 34 iterations
    settings_list = [0.45, {"user": 0.1, "text": 0.1, "link": 0.1}, 0.3]
    spam, n_iters, converged = loopy_bp_batch(graph, settings_list, max_iters=40)
    assert converged.tolist() == [True, False, True]
    assert n_iters.tolist() == [17, 40, 34]
    for eps, row, row_iters in zip(settings_list, spam, n_iters):
        single = loopy_bp(build_factor_graph(priors, groups, eps), max_iters=40)
        assert row.tolist() == list(single.marginals.values())
        assert row_iters == single.n_iters


def test_batch_checks_every_epsilon_setting():
    priors = {"a": 0.5, "b": 0.5}
    graph = build_factor_graph(priors, [group("user", "u", ["a", "b"])], 0.1)
    with pytest.raises(ConfigError):
        loopy_bp_batch(graph, [0.1, {"user": 0.5}])
