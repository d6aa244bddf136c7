import itertools
import random

import pytest

from relspam.data_model import ConfigError, DataError, Group
from relspam.mrf import (
    FactorGraph,
    PairwiseFactor,
    VariableNode,
    build_factor_graph,
    exact_marginals,
    infer_posteriors,
    loopy_bp,
)


def group(relation, key, members):
    return Group(relation=relation, key=key, member_ids=tuple(sorted(members)))


def build_pairwise_reference(priors: dict, g: Group, epsilon: float) -> FactorGraph:
    """Direct message-message construction: one factor per member pair.

    Reference model used only to demonstrate the quadratic edge blowup the
    hub construction avoids.
    """
    graph = FactorGraph()
    index = {}
    for mid in g.member_ids:
        p = priors[mid]
        index[mid] = len(graph.variables)
        graph.variables.append(VariableNode(kind="message", id=mid, phi=(1.0 - p, p)))
    for a, b in itertools.combinations(g.member_ids, 2):
        graph.factors.append(PairwiseFactor(var_a=index[a], var_b=index[b], epsilon=epsilon))
    return graph


class TestBuild:
    def test_six_member_group_shape(self):
        priors = {f"m{i}": 0.6 for i in range(6)}
        graph = build_factor_graph(priors, [group("user", "u", priors)], {"user": 0.1})
        assert len(graph.variables) == 7
        assert len(graph.factors) == 6

    def test_message_in_no_group_excluded(self):
        priors = {"a": 0.9, "b": 0.8, "c": 0.3}
        result = infer_posteriors(priors, [group("user", "u", ["a", "b"])], {"user": 0.1})
        assert result.scores["c"] == 0.3
        assert result.n_variables == 3  # a, b, hub

    def test_factor_table(self):
        f = PairwiseFactor(0, 1, 0.1)
        assert f.table() == [[0.9, 0.1], [0.1, 0.9]]

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
        for v in graph.variables:
            assert v.phi[0] > 0 and v.phi[1] > 0
        assert [r.levelname for r in caplog.records] == ["DEBUG"]

    def test_missing_prior_rejected(self):
        with pytest.raises(DataError):
            build_factor_graph({"a": 0.5}, [group("user", "u", ["a", "b"])], {"user": 0.1})

    def test_bipartite_structure(self):
        priors = {f"m{i}": 0.5 for i in range(5)}
        groups = [group("user", "u", ["m0", "m1", "m2"]), group("text", "t", ["m2", "m3", "m4"])]
        graph = build_factor_graph(priors, groups, 0.1)
        for f in graph.factors:
            kinds = {graph.variables[f.var_a].kind, graph.variables[f.var_b].kind}
            assert kinds == {"message", "hub"}

    def test_edge_count_linear_in_group_size(self):
        priors = {f"m{i:03d}": 0.6 for i in range(100)}
        g = group("link", "l", priors)
        hub_graph = build_factor_graph(priors, [g], 0.1)
        pairwise = build_pairwise_reference(priors, g, 0.1)
        assert len(hub_graph.factors) == 100
        assert len(pairwise.factors) == 4950


class TestExactMarginals:
    def test_empty_graph(self):
        assert exact_marginals(FactorGraph()) == {}

    def test_single_unary_variable(self):
        graph = FactorGraph(variables=[VariableNode("message", "a", (0.3, 0.7))])
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
        variables = [VariableNode("message", f"v{i}", (0.5, 0.5)) for i in range(21)]
        with pytest.raises(DataError):
            exact_marginals(FactorGraph(variables=variables))


def random_tree_graph(rng, n_vars):
    """Random tree over message/hub variables with random priors and epsilons."""
    variables = []
    factors = []
    for i in range(n_vars):
        p = rng.uniform(0.05, 0.95)
        variables.append(VariableNode("message", f"v{i}", (1.0 - p, p)))
    for i in range(1, n_vars):
        parent = rng.randrange(i)
        factors.append(PairwiseFactor(parent, i, rng.uniform(0.01, 0.49)))
    return FactorGraph(variables=variables, factors=factors)


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
        assert set(result.marginals) == {v.id for v in graph.variables}

    def test_loopy_graph_close_to_exact(self):
        # two overlapping groups form a cycle; loopy BP should still land close
        priors = {"a": 0.8, "b": 0.75, "c": 0.3}
        groups = [group("user", "u", ["a", "b", "c"]), group("text", "t", ["a", "b"])]
        graph = build_factor_graph(priors, groups, 0.2)
        bp = loopy_bp(graph, max_iters=2000, tol=1e-12)
        exact = exact_marginals(graph)
        for vid in exact:
            assert bp.marginals[vid] == pytest.approx(exact[vid], abs=5e-2)


def test_dump_is_readable():
    priors = {"a": 0.8, "b": 0.6}
    graph = build_factor_graph(priors, [group("user", "u", ["a", "b"])], {"user": 0.1})
    text = graph.dump()
    assert "hub:user:u" in text
    assert "eps=0.1" in text
