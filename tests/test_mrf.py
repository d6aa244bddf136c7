import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relspam.data_model import DataError
from relspam.mrf import (
    FactorGraph,
    build_factor_graph,
    edge_epsilons,
    infer_posteriors,
    loopy_bp,
    loopy_bp_batch,
)

from tables import exact_marginals, hub_table


def log_odds(p: float) -> float:
    return np.log(p) - np.log(1.0 - p)


def message_graph(priors, factors, epsilons) -> FactorGraph:
    """A graph of message variables only."""
    return FactorGraph(np.arange(len(priors)), np.array([log_odds(p) for p in priors], dtype=float),
                       np.array(factors, dtype=np.int64).reshape(-1, 2),
                       np.array(epsilons, dtype=float))


def build_pairwise_reference(priors, epsilon: float) -> FactorGraph:
    """Direct message-message construction: one factor per member pair of one group.

    Reference model used only to demonstrate the quadratic edge blowup the
    hub construction avoids.
    """
    pairs = list(itertools.combinations(range(len(priors)), 2))
    return message_graph(priors, pairs, [epsilon] * len(pairs))


def one_group(n, relation="user"):
    return hub_table((relation, "u", range(n)))


class TestBuild:
    def test_six_member_group_shape(self):
        graph = build_factor_graph(np.full(6, 0.6), one_group(6), {"user": 0.1})
        assert len(graph.h0) == 7
        assert len(graph.factors) == 6

    def test_message_in_no_group_excluded(self):
        priors = np.array([0.9, 0.8, 0.3])
        scores, bp = infer_posteriors(priors, one_group(2), {"user": 0.1})
        assert scores[2] == 0.3
        assert len(bp.marginals) == 3  # 0, 1, hub

    def test_extreme_priors_clamped(self, caplog):
        # gold labels enter as 0/1 priors on every call, so clamping is no warning
        with caplog.at_level("DEBUG", logger="relspam.mrf"):
            graph = build_factor_graph(np.array([1.0, 0.0]), one_group(2), {"user": 0.1})
        assert np.isfinite(graph.h0).all()
        assert [r.levelname for r in caplog.records] == ["DEBUG"]

    def test_missing_prior_rejected(self):
        with pytest.raises(DataError, match="position 1"):
            build_factor_graph(np.array([0.5, np.nan]), one_group(2), {"user": 0.1})

    def test_bipartite_structure(self):
        groups = hub_table(("user", "u", [0, 1, 2]), ("text", "t", [2, 3, 4]))
        graph = build_factor_graph(np.full(5, 0.5), groups, 0.1)
        for a, b in graph.factors:
            kinds = {a < len(graph.messages), b < len(graph.messages)}  # is each a message?
            assert kinds == {True, False}

    def test_message_variables_in_position_order(self):
        groups = hub_table(("user", "u", [4, 1]), ("text", "t", [3, 1]))
        graph = build_factor_graph(np.linspace(0.1, 0.9, 6), groups, 0.1)
        assert graph.messages.tolist() == [1, 3, 4]
        assert graph.h0[:3].tolist() == [log_odds(p) for p in np.linspace(0.1, 0.9, 6)[[1, 3, 4]]]
        assert graph.h0[3:].tolist() == [0.0, 0.0]  # the hubs

    def test_edge_count_linear_in_group_size(self):
        priors = np.full(100, 0.6)
        hub_graph = build_factor_graph(priors, one_group(100, "link"), 0.1)
        pairwise = build_pairwise_reference(priors, 0.1)
        assert len(hub_graph.factors) == 100
        assert len(pairwise.factors) == 4950


class TestExactMarginals:
    def test_empty_graph(self):
        assert exact_marginals(message_graph([], [], [])).tolist() == []

    def test_single_unary_variable(self):
        graph = message_graph([0.7], [], [])
        assert exact_marginals(graph)[0] == pytest.approx(0.7)

    def test_hand_expanded_eight_term_sum(self):
        # two messages with prior 0.85 joined through one hub, eps = 0.1:
        # the eight assignment weights sum to Z = 0.3284, the four terms with
        # the first message spammy sum to 0.3077, the hub-spammy terms to 0.3042
        graph = build_factor_graph(np.full(2, 0.85), one_group(2), {"user": 0.1})
        marg = exact_marginals(graph)
        assert marg[0] == pytest.approx(0.3077 / 0.3284, abs=1e-12)
        assert marg[1] == pytest.approx(0.3077 / 0.3284, abs=1e-12)
        assert marg[2] == pytest.approx(0.3042 / 0.3284, abs=1e-12)  # the hub

    def test_size_guard(self):
        graph = message_graph([0.5] * 21, [], [])
        with pytest.raises(DataError):
            exact_marginals(graph)


def random_tree_graph(rng, n_vars):
    """Random tree over message/hub variables with random priors and epsilons."""
    priors = [rng.uniform(0.05, 0.95) for _ in range(n_vars)]
    factors, epsilons = [], []
    for i in range(1, n_vars):
        factors.append((rng.randrange(i), i))
        epsilons.append(rng.uniform(0.01, 0.49))
    return message_graph(priors, factors, epsilons)


class TestLoopyBP:
    def test_isolated_variable_keeps_prior(self):
        scores, bp = infer_posteriors(np.array([0.85]), hub_table(), 0.1)
        assert scores[0] == 0.85
        assert bp.converged

    def test_shared_hub_pushes_posteriors(self):
        graph = build_factor_graph(np.full(2, 0.85), one_group(2), {"user": 0.1})
        bp = loopy_bp(graph, max_iters=500, tol=1e-12)
        exact = exact_marginals(graph)
        assert bp.marginals[0] > 0.85
        assert bp.marginals[0] == pytest.approx(exact[0], abs=1e-6)
        assert bp.marginals[1] == pytest.approx(exact[1], abs=1e-6)

    def test_tree_exactness(self):
        rng = random.Random(77)
        for _ in range(100):
            graph = random_tree_graph(rng, rng.randint(2, 10))
            bp = loopy_bp(graph, max_iters=500, tol=1e-13)
            np.testing.assert_allclose(bp.marginals, exact_marginals(graph), rtol=0, atol=1e-9)

    def test_monotone_group_push(self):
        prev = 0.85
        for n in range(2, 9):
            graph = build_factor_graph(np.full(n, 0.85), one_group(n), 0.1)
            exact = exact_marginals(graph)
            bp = loopy_bp(graph, max_iters=500, tol=1e-12)
            assert bp.marginals[0] == pytest.approx(exact[0], abs=1e-6)
            assert exact[0] >= prev - 1e-12
            prev = exact[0]

    def test_equal_priors_get_equal_posteriors(self):
        scores, _ = infer_posteriors(np.full(5, 0.7), one_group(5, "text"), 0.2)
        values = {round(v, 12) for v in scores.tolist()}
        assert len(values) == 1

    def test_uninformative_epsilon_limit(self):
        priors = np.array([0.85, 0.6, 0.2])
        scores, _ = infer_posteriors(priors, one_group(3), 0.4999, max_iters=2000, tol=1e-12)
        np.testing.assert_allclose(scores, priors, rtol=0, atol=1e-3)

    def test_label_flip_symmetry(self):
        rng = random.Random(5)
        priors = np.array([rng.uniform(0.05, 0.95) for _ in range(6)])
        groups = hub_table(("user", "u", [0, 1, 2]), ("text", "t", [2, 3, 4, 5]))
        fwd, _ = infer_posteriors(priors, groups, 0.15, max_iters=300, tol=1e-10)
        rev, _ = infer_posteriors(1.0 - priors, groups, 0.15, max_iters=300, tol=1e-10)
        np.testing.assert_allclose(rev, 1.0 - fwd, rtol=0, atol=1e-12)

    def test_nonconvergence_returns_flag_not_exception(self):
        groups = hub_table(("user", "u", range(4)), ("text", "t", range(4)))
        graph = build_factor_graph(np.full(4, 0.9), groups, 0.05)
        result = loopy_bp(graph, max_iters=1, tol=1e-15)
        assert result.converged is False
        assert result.marginals.shape == (len(graph.h0),)

    def test_loopy_graph_close_to_exact(self):
        # two overlapping groups form a cycle; loopy BP should still land close
        groups = hub_table(("user", "u", [0, 1, 2]), ("text", "t", [0, 1]))
        graph = build_factor_graph(np.array([0.8, 0.75, 0.3]), groups, 0.2)
        bp = loopy_bp(graph, max_iters=2000, tol=1e-12)
        np.testing.assert_allclose(bp.marginals, exact_marginals(graph), rtol=0, atol=5e-2)

    @pytest.mark.parametrize("epsilon", [0.01, 0.45])
    def test_large_hub_stays_finite(self, epsilon):
        # a hub's field sums 20,000 messages; with priors at the clamp no
        # marginal may overflow or leave [0, 1]
        n = 20_000
        mixed = build_factor_graph(np.arange(n) % 2.0, one_group(n), epsilon)
        bp = loopy_bp(mixed)
        assert bp.converged
        assert np.isfinite(bp.marginals).all()
        assert ((bp.marginals >= 0) & (bp.marginals <= 1)).all()
        # a hub of spam can only push each member up from its clamped prior
        spam = build_factor_graph(np.ones(n), one_group(n), epsilon)
        bp = loopy_bp(spam)
        assert bp.converged
        assert (bp.marginals[:n] >= 1.0 - 1e-6).all()


def reference_factor_graph(priors: dict, groups: list, epsilons) -> FactorGraph:
    """The hub graph built one variable and one factor at a time, as
    build_factor_graph once did, from (relation, members) groups."""
    if isinstance(epsilons, (int, float)):
        epsilons = {relation: float(epsilons) for relation, _ in groups}
    messages, h0, factors, eps = [], [], [], []
    index = {}
    for mid in sorted({mid for _, members in groups for mid in members}):
        p = min(max(priors[mid], 1e-6), 1.0 - 1e-6)
        index[mid] = len(messages)
        messages.append(mid)
        h0.append(log_odds(p))
    for relation, members in groups:
        h = len(h0)
        h0.append(0.0)
        for mid in sorted(members):
            factors.append((index[mid], h))
            eps.append(epsilons.get(relation, 0.1) if isinstance(epsilons, dict) else 0.1)
    return FactorGraph(np.array(messages, dtype=np.int64), np.array(h0, dtype=float),
                       np.array(factors, dtype=np.int64).reshape(-1, 2), np.array(eps, dtype=float))


def reference_loopy_bp(graph: FactorGraph, max_iters: int, damping: float = 0.5, tol: float = 1e-6):
    """Per-edge-list log-odds BP with unbuffered np.add.at accumulation."""
    a_idx, b_idx = graph.factors[:, 0], graph.factors[:, 1]
    gain = 1.0 - 2.0 * graph.epsilon
    h0 = graph.h0
    msg_ab = np.zeros(len(graph.factors))
    msg_ba = np.zeros(len(graph.factors))

    def fields(m_ab, m_ba):
        incoming = np.zeros(len(h0))
        np.add.at(incoming, a_idx, m_ba)
        np.add.at(incoming, b_idx, m_ab)
        return h0 + incoming

    converged, it = False, 0
    for it in range(1, max_iters + 1):
        h = fields(msg_ab, msg_ba)
        new_ab = 2.0 * np.arctanh(gain * np.tanh((h[a_idx] - msg_ba) / 2))
        new_ba = 2.0 * np.arctanh(gain * np.tanh((h[b_idx] - msg_ab) / 2))
        new_ab = damping * msg_ab + (1.0 - damping) * new_ab
        new_ba = damping * msg_ba + (1.0 - damping) * new_ba
        delta = max(np.abs(new_ab - msg_ab).max(), np.abs(new_ba - msg_ba).max())
        msg_ab, msg_ba = new_ab, new_ba
        if delta < tol:
            converged = True
            break
    return ((1.0 + np.tanh(fields(msg_ab, msg_ba) / 2)) / 2).tolist(), converged, it


RELATIONS = ("user", "text", "link")
EPSILONS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)


@st.composite
def hub_inputs(draw):
    """(priors over positions, groups as (relation, members) pairs, their table)."""
    n = draw(st.integers(2, 9))
    groups = []
    for relation in RELATIONS:
        for key in ("k0", "k1", "k2")[:draw(st.integers(0, 3))]:
            members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            groups.append((relation, members))
    draw(st.randoms()).shuffle(groups)
    prior = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    priors = np.array([draw(prior) for _ in range(n)])
    return priors, groups, hub_table(*((r, str(k), m) for k, (r, m) in enumerate(groups)))


# a per-relation dict that may leave relations out (they take 0.1), or one shared value
epsilon_settings = st.one_of(
    st.sampled_from(EPSILONS),
    st.dictionaries(st.sampled_from(RELATIONS), st.sampled_from(EPSILONS)))


@settings(max_examples=80, deadline=None)
@given(hub_inputs(), epsilon_settings, st.sampled_from([(100, 1e-6), (3, 1e-15)]))
def test_array_graph_matches_per_object_reference(inputs, epsilons, stop):
    priors, groups, table = inputs
    graph = build_factor_graph(priors, table, epsilons)
    ref = reference_factor_graph(priors, groups, epsilons)
    for name in ("messages", "h0", "factors", "epsilon"):
        assert getattr(graph, name).shape == getattr(ref, name).shape
        assert getattr(graph, name).tolist() == getattr(ref, name).tolist()

    # the array graph, the same graph built by hand, and the per-edge loop agree bit for bit
    max_iters, tol = stop
    if len(ref.factors):
        expected = reference_loopy_bp(ref, max_iters, tol=tol)
    else:
        expected = [], True, 0  # no groups, so no variables
    for g in (graph, ref):
        bp = loopy_bp(g, max_iters=max_iters, tol=tol)
        assert (bp.marginals.tolist(), bp.converged, bp.n_iters) == expected
        assert type(bp.converged) is bool and type(bp.n_iters) is int


def edge_rows(table, settings_list) -> np.ndarray:
    """One row of edge epsilons per setting, as `loopy_bp_batch` takes them."""
    return np.array([edge_epsilons(table, eps) for eps in settings_list])


@settings(max_examples=80, deadline=None)
@given(hub_inputs(), st.lists(epsilon_settings, min_size=1, max_size=6),
       st.sampled_from([(100, 1e-6), (12, 1e-9), (2, 1e-15)]))
def test_batched_rows_equal_single_runs_bit_for_bit(inputs, settings_list, stop):
    priors, _, table = inputs
    max_iters, tol = stop
    graph = build_factor_graph(priors, table, 0.1)
    spam, n_iters, converged = loopy_bp_batch(graph, edge_rows(table, settings_list),
                                              max_iters=max_iters, tol=tol)
    assert spam.shape == (len(settings_list), len(graph.h0))
    for eps, row, row_iters, row_converged in zip(settings_list, spam, n_iters, converged):
        single = loopy_bp(build_factor_graph(priors, table, eps), max_iters=max_iters, tol=tol)
        assert row.tolist() == single.marginals.tolist()
        assert (row_iters, row_converged) == (single.n_iters, single.converged)


def test_batch_rows_stop_at_their_own_iteration():
    priors = np.array([0.2 + 0.1 * i for i in range(6)])
    groups = hub_table(("user", "u", [0, 1, 2, 3]), ("text", "t", [2, 3, 4, 5]), ("link", "l", [0, 5]))
    graph = build_factor_graph(priors, groups, 0.1)
    # alone, these rows converge in 19, 82 and 38 iterations
    settings_list = [0.45, {"user": 0.1, "text": 0.1, "link": 0.1}, 0.3]
    spam, n_iters, converged = loopy_bp_batch(graph, edge_rows(groups, settings_list), max_iters=40)
    assert converged.tolist() == [True, False, True]
    assert n_iters.tolist() == [19, 40, 38]
    for eps, row, row_iters in zip(settings_list, spam, n_iters):
        single = loopy_bp(build_factor_graph(priors, groups, eps), max_iters=40)
        assert row.tolist() == single.marginals.tolist()
        assert row_iters == single.n_iters
