import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relspam import evaluation
from relspam.data_model import (
    ConfigError,
    DataError,
    build_groups,
    build_index,
    chronological_split,
    labels_of,
    message_table,
    relations_from_names,
    sort_chronologically,
)
from relspam.evaluation import (
    EPSILON_GRID,
    ExperimentConfig,
    aupr,
    auroc,
    component_coverage,
    evaluate_experiment,
    featurize_subset,
    inductive_partition,
    infer_subset_models,
    parse_model_name,
    prepare_dataset,
    ranking_metrics,
    report_json,
    report_text,
    train_subset_models,
    tune_epsilons,
)
from relspam.hinge import HingeConfig
from relspam.linear import ClassifierConfig, recenter_scores
from relspam.mrf import infer_posteriors

from tables import hub_table, over, records_of, rows_of


def ap_oracle(scores, labels):
    """Per-threshold recomputation of average precision (quadratic, independent)."""
    n_pos = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        pred_pos = [i for i, s in enumerate(scores) if s >= t]
        tp = sum(labels[i] for i in pred_pos)
        precision = tp / len(pred_pos)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def auroc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAupr:
    def test_perfect_ranking(self):
        assert aupr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_computed_example(self):
        assert aupr([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)

    def test_constant_scores_give_prevalence(self):
        labels = [1] * 3 + [0] * 17
        assert aupr([0.4] * 20, labels) == pytest.approx(3 / 20, abs=1e-12)

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(5, 40)
            scores = [rng.choice([0.1, 0.25, 0.5, 0.75, 0.9, rng.random()]) for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            assert aupr(scores, labels) == pytest.approx(ap_oracle(scores, labels), abs=1e-12)

    def test_perfect_ranking_is_exactly_one(self):
        # summed in order, nine positives ranked first reach 1.0000000000000002
        for n_pos in range(1, 60):
            scores = [1.0 - k / 100 for k in range(n_pos + 3)]
            assert aupr(scores, [1] * n_pos + [0] * 3) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            aupr([0.5, 0.4], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = random.Random(3)
        scores = [rng.random() for _ in range(30)]
        labels = [rng.randint(0, 1) for _ in range(30)]
        labels[0], labels[1] = 0, 1
        transformed = [np.tanh(3 * s) + 2 for s in scores]
        assert aupr(scores, labels) == pytest.approx(aupr(transformed, labels), abs=1e-12)


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.3] * 10, [1, 0] * 5) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(5, 40)
            scores = [rng.choice([0.2, 0.5, 0.8, rng.random()]) for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            assert auroc(scores, labels) == pytest.approx(auroc_oracle(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = random.Random(17)
        scores = [rng.random() for _ in range(25)]
        labels = [rng.randint(0, 1) for _ in range(25)]
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) == pytest.approx(
            auroc([s ** 3 + 1 for s in scores], labels), abs=1e-12)


def user_index(rows, labels=None):
    """The "user" index of messages given as (id, user) in chronological order."""
    messages = [dict(id=mid, user_id=user, timestamp=i, label=None if labels is None else labels[i])
                for i, (mid, user) in enumerate(rows)]
    return build_index(message_table(messages), ["user"])


class TestInductivePartition:
    def test_shared_group_with_train_is_transductive(self):
        index = user_index([("tr1", "u"), ("t1", "u"), ("t2", "v")])
        assert inductive_partition(index, (0, 1), (1, 3)).tolist() == [False, True]

    def test_no_groups_is_inductive(self):
        index = user_index([("tr1", "a"), ("t1", "b")])
        assert inductive_partition(index, (0, 1), (1, 2)).tolist() == [True]

    def test_test_only_groups_stay_inductive(self):
        index = user_index([("tr1", "a"), ("t1", "x"), ("t2", "x")])
        assert inductive_partition(index, (0, 1), (1, 3)).tolist() == [True, True]

    def test_partition_exhaustive_and_disjoint(self):
        rng = random.Random(7)
        rows = [(f"r{i}", f"u{rng.randrange(6)}") for i in range(20)]
        rows += [(f"t{i}", f"u{rng.randrange(6)}") for i in range(20)]
        inductive = inductive_partition(user_index(rows), (0, 20), (20, 40))
        assert inductive.shape == (20,) and inductive.dtype == bool
        train_users = {u for _, u in rows[:20]}
        assert inductive.tolist() == [u not in train_users for _, u in rows[20:]]


class TestComponentCoverage:
    def index(self, users, labels=None):
        return user_index([(f"m{i}", u) for i, u in enumerate(users)], labels)

    def test_single_group_covers_everything(self):
        curve = component_coverage(self.index(["u"] * 5))
        assert curve["all_cumulative"][0] == 1.0

    def test_no_groups_linear_curve(self):
        curve = component_coverage(self.index(["a", "b", "c", "d"]))
        assert curve["all_cumulative"] == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_two_disjoint_groups(self):
        curve = component_coverage(self.index(["a"] * 6 + ["b"] * 4))
        assert curve["all_cumulative"][:2] == pytest.approx([0.6, 1.0])

    def test_label_split(self):
        curve = component_coverage(self.index(["a", "a", "b", "c"], labels=[1, 1, 0, 0]))
        assert curve["spam_cumulative"][0] == 1.0
        assert curve["ham_cumulative"][0] == 0.0


# The set and union-find code the array passes replaced, kept as their oracle.

def reference_inductive_partition(test_ids, train_ids, groups) -> tuple:
    test_set = set(test_ids)
    train_set = set(train_ids)
    transductive = set()
    for g in groups:
        members = set(g.member_ids)
        if members & train_set:
            transductive |= members & test_set
    return sorted(test_set - transductive), sorted(transductive)


class ReferenceUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def reference_component_coverage(messages: list, groups: list) -> dict:
    """Components largest first, then by earliest message; `messages` in
    chronological order."""
    ids = [m.id for m in messages]
    position = {mid: i for i, mid in enumerate(ids)}
    uf = ReferenceUnionFind(ids)
    for g in groups:
        for other in g.member_ids[1:]:
            uf.union(g.member_ids[0], other)
    comps: dict = {}
    for mid in ids:
        comps.setdefault(uf.find(mid), []).append(mid)
    components = sorted(comps.values(), key=lambda c: (-len(c), min(map(position.get, c))))
    labels = labels_of(messages)
    n_spam = sum(1 for v in labels.values() if v == 1)
    n_ham = sum(1 for v in labels.values() if v == 0)
    sizes, cum_all, cum_spam, cum_ham = [], [], [], []
    got_all = got_spam = got_ham = 0
    for comp in components:
        sizes.append(len(comp))
        got_all += len(comp)
        got_spam += sum(1 for mid in comp if labels.get(mid) == 1)
        got_ham += sum(1 for mid in comp if labels.get(mid) == 0)
        cum_all.append(got_all / len(ids))
        cum_spam.append(got_spam / n_spam if n_spam else 0.0)
        cum_ham.append(got_ham / n_ham if n_ham else 0.0)
    return {"component_sizes": sizes, "all_cumulative": cum_all,
            "spam_cumulative": cum_spam, "ham_cumulative": cum_ham}


relational_messages = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["u1", "u2", "u3", "u4", "u5", "u6"]),
              st.sampled_from(["x", "y", "z", "w", "v", ""]),
              st.lists(st.sampled_from(["http://a.io", "http://b.io", "http://c.io"]), max_size=2),
              st.sampled_from([None, 0, 1])),
    min_size=1, max_size=40)


def ordered_messages(rows) -> list:
    # ids out of time order, so chronological position and id order differ
    return sort_chronologically(rows_of([
        dict(id=f"m{(7 * i) % 41:02d}", user_id=u, text=t, links=links, timestamp=ts, label=y)
        for i, (ts, u, t, links, y) in enumerate(rows)]))


@settings(max_examples=80, deadline=None)
@given(relational_messages, st.lists(st.sampled_from(["user", "text", "link"]), unique=True),
       st.lists(st.integers(0, 40), min_size=3, max_size=3))
def test_array_partition_and_coverage_match_the_set_and_union_find_code(rows, relations, cuts):
    ordered = ordered_messages(rows)
    a, b, c = sorted(min(x, len(ordered)) for x in cuts)
    index = build_index(message_table(records_of(ordered)), relations)
    train, test = ordered[:a], ordered[b:c]
    groups_tt = build_groups(train + test, relations_from_names(relations))
    inductive = inductive_partition(index, (0, a), (b, c))
    flags = dict(zip(index.ids[b:c], inductive.tolist()))
    assert (sorted(m for m, f in flags.items() if f), sorted(m for m, f in flags.items() if not f)) \
        == reference_inductive_partition([m.id for m in test], [m.id for m in train], groups_tt)
    curve = component_coverage(index)
    assert curve == reference_component_coverage(
        ordered, build_groups(ordered, relations_from_names(relations)))


class TestModelNames:
    def test_parse(self):
        assert parse_model_name("independent") == (None, None)
        assert parse_model_name("sgl1") == (1, None)
        assert parse_model_name("sgl2+mrf") == (2, "mrf")
        assert parse_model_name("psl") == (None, "psl")

    @pytest.mark.parametrize("name", ["wat", "sgl", "sgl0", "sgl01", "+mrf", "sgl1+",
                                      "mrf+sgl1", "sgl1+mrf+psl", "mrf+psl", 5])
    def test_unknown_name_raises_a_named_error(self, name):
        with pytest.raises(ConfigError, match=f"'models'.*{re.escape(repr(name))}"):
            parse_model_name(name)
        with pytest.raises(ConfigError, match="'models'"):
            ExperimentConfig(models=["independent", name]).check()

    def test_any_stack_depth_is_a_roster_name(self):
        assert parse_model_name("sgl3") == (3, None)
        assert parse_model_name("sgl12+psl") == (12, "psl")
        assert ExperimentConfig(models=["sgl3", "sgl2+mrf"]).required_stacks() == [2, 3]


def planted_experiment_data(n=600, seed=0, prevalence=0.2, n_campaigns=12):
    """Messages with campaign spam (shared text + link, bursty) and grouped ham."""
    rng = random.Random(seed)
    n_spam = int(n * prevalence)
    per_campaign = n_spam // n_campaigns
    messages = []
    t = 0
    spam_slots = set()
    campaign_of = {}
    starts = sorted(rng.sample(range(n - per_campaign - 1), n_campaigns))
    for c, start in enumerate(starts):
        offset = 0
        placed = 0
        while placed < per_campaign:
            slot = start + offset
            offset += 1
            if slot in spam_slots or slot >= n:
                continue
            spam_slots.add(slot)
            campaign_of[slot] = c
            placed += 1
    for i in range(n):
        if i in spam_slots:
            c = campaign_of[i]
            messages.append(dict(
                id=f"m{i:04d}", user_id=f"spammer{c % 7}",
                text=f"free followers campaign {c}",
                links=[f"http://spam{c}.example/x"],
                timestamp=i, label=1))
        else:
            messages.append(dict(
                id=f"m{i:04d}", user_id=f"user{rng.randrange(60)}",
                text=f"talking about topic {rng.randrange(40)}",
                timestamp=i, label=0))
    return messages


class TestExperiment:
    def small_config(self, **kw):
        defaults = dict(
            relations=["user", "text", "link"],
            models=["independent"],
            n_subsets=3,
            fractions=(0.7, 0.05, 0.25),
            feature_mode="limited",
            limited_drop="ngrams",
            classifier=ClassifierConfig(l2=1.0, max_iter=200),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_single_model_roster(self):
        messages = planted_experiment_data(n=300)
        report = evaluate_experiment(messages, [], self.small_config())
        assert len(report["models"]) == 1
        assert report["models"][0]["model"] == "independent"
        assert report["n_test"] > 0

    def test_roster_with_joint_models(self):
        messages = planted_experiment_data(n=300, seed=2)
        config = self.small_config(models=["independent", "sgl1", "mrf", "psl", "sgl1+mrf"])
        report = evaluate_experiment(messages, [], config)
        names = [m["model"] for m in report["models"]]
        assert names == ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"]
        for entry in report["models"]:
            assert entry["overall"]["aupr"] is None or 0.0 <= entry["overall"]["aupr"] <= 1.0

    def test_combined_model_uses_stacked_priors(self):
        messages = planted_experiment_data(n=240, seed=3)
        config = self.small_config(models=["independent", "sgl1", "mrf", "sgl1+mrf"],
                                   n_subsets=2)
        from relspam.data_model import chronological_split, sort_chronologically

        ordered, table = sort_chronologically(rows_of(messages)), message_table(messages)
        plan = chronological_split(table, 2, config.fractions)
        s = plan[0]
        fm = featurize_subset(table, s, config, {})
        index = build_index(table, config.relations)
        artifacts = train_subset_models(index, s, fm, config)
        preds, _ = infer_subset_models(artifacts, index, s, fm, config)

        # the groups of the train and test messages, built from the messages themselves
        tt = ordered[s.train[0]:s.train[1]] + ordered[s.test[0]:s.test[1]]
        position = {m.id: i for i, m in enumerate(ordered)}
        groups_tt = hub_table(*((g.relation, g.key, [position[mid] for mid in g.member_ids])
                                for g in build_groups(tt, relations_from_names(config.relations))))
        context = over(len(ordered), {i: float(ordered[i].label) for i in range(*s.train)})
        for name, priors_test in (("mrf", preds["independent"]), ("sgl1+mrf", preds["sgl1"])):
            priors = context.copy()
            priors[slice(*s.test)] = recenter_scores(priors_test, float(np.mean(priors_test)))
            expected, _ = infer_posteriors(priors, groups_tt, config.epsilons)
            np.testing.assert_allclose(preds[name], expected[slice(*s.test)], rtol=0,
                                       atol=1e-12)

    def test_validates_the_dataset_as_the_cli_does(self):
        messages = planted_experiment_data(n=300, seed=4)
        messages[5]["id"] = "m\nfive"
        with pytest.raises(DataError,
                           match="^record 5: 'id' must be a string without a tab, CR, newline"):
            evaluate_experiment(messages, [], self.small_config())
        messages[5]["id"] = messages[4]["id"]
        with pytest.raises(DataError, match=f"duplicate message id: {messages[4]['id']}"):
            evaluate_experiment(messages, [], self.small_config())

    def test_an_id_that_names_a_hub_keeps_its_own_score(self):
        # hubs are numbered after the messages, so a message "hub:user:..."
        # in a group is scored as itself, not as its user's hub
        config = self.small_config(models=["independent", "mrf", "psl"])
        runs = []
        for renamed in (False, True):
            messages = planted_experiment_data(n=300, seed=4)
            if renamed:
                # in subset 0's test slice
                messages[80]["id"] = f"hub:user:{messages[80]['user_id']}"
            table = message_table(messages)
            plan, graph_table = prepare_dataset(table, [], config)
            index = build_index(table, config.relations)
            subset = plan[0]
            fm = featurize_subset(table, subset, config, graph_table)
            artifacts = train_subset_models(index, subset, fm, config)
            runs.append((index, infer_subset_models(artifacts, index, subset, fm, config)[0]))
        (original, before), (renamed, after) = runs
        assert renamed.ids[80] == f"hub:user:{messages[80]['user_id']}" != original.ids[80]
        assert 80 in renamed.table.members and subset.test[0] <= 80 < subset.test[1]
        for name in config.models:
            assert after[name].tolist() == before[name].tolist(), name

    def test_a_lone_surrogate_fails_before_any_work(self):
        messages = planted_experiment_data(n=300, seed=4)
        messages[5]["user_id"] = "u\udfff"
        with pytest.raises(DataError,
                           match="^record 5: 'user_id' must be .*lone surrogate, got 'u\\\\udfff'"):
            evaluate_experiment(messages, [], self.small_config())

    def test_unlabeled_training_message_fails_before_any_work(self):
        messages = planted_experiment_data(n=300, seed=4)
        messages[3]["label"] = None  # in subset 0's training slice
        with pytest.raises(DataError, match="subset 0: .*'m0003'"):
            evaluate_experiment(messages, [], self.small_config())

    def test_too_short_stacked_training_slice_fails_before_any_work(self, monkeypatch):
        def no_featurizing(*args):
            raise AssertionError("a subset was featurized")

        monkeypatch.setattr(evaluation, "featurize_subset", no_featurizing)
        # 150 subsets of two messages, one of them training: sgl1 needs two
        config = self.small_config(models=["independent", "sgl1"], n_subsets=150)
        with pytest.raises(DataError, match=r"^subset 0: 1 training messages, but sgl1 needs 2; "
                                            r"raise fractions\[0\] or lower n_subsets$"):
            evaluate_experiment(planted_experiment_data(n=300, seed=4), [], config)

    def test_unlabeled_test_message_is_scored_but_not_counted(self):
        messages = planted_experiment_data(n=300, seed=4)
        messages[-1]["label"] = None  # in the last subset's test slice
        report = evaluate_experiment(messages, [], self.small_config())
        assert report["models"][0]["overall"]["n"] == report["n_test"] - 1

    def test_report_serialization(self):
        messages = planted_experiment_data(n=300, seed=4)
        report = evaluate_experiment(messages, [], self.small_config())
        text = report_text(report)
        assert "independent" in text
        payload = report_json(report)
        assert '"models"' in payload

    def test_concatenation_matches_manual_metric(self):
        messages = planted_experiment_data(n=300, seed=5)
        config = self.small_config()
        report = evaluate_experiment(messages, [], config)
        # reproduce the concatenated AUPR by recomputing on the per-subset slices
        entry = report["models"][0]
        per_subset_ns = [m["n"] for m in entry["per_subset"]]
        assert sum(per_subset_ns) == report["n_test"]


class TestTuneEpsilons:
    def test_returns_defaults_without_labels(self):
        eps = tune_epsilons(np.zeros(0), hub_table(), np.zeros(0, dtype=np.int8), ["user"], 0.1)
        assert eps == {"user": 0.1}

    def test_picks_epsilon_from_grid(self):
        rng = random.Random(5)
        # ten users of four messages each, alternately ham and spam
        labels = np.repeat(np.arange(10) % 2, 4).astype(np.int8)
        priors = np.array([0.5 + 0.2 * (1 if y else -1) * rng.random() for y in labels])
        groups = hub_table(*(("user", f"u{j}", range(4 * j, 4 * j + 4)) for j in range(10)))
        eps = tune_epsilons(priors, groups, labels, ["user"], 0.1)
        assert set(eps) == {"user"}
        assert 0.0 < eps["user"] < 0.5

    def test_runs_each_distinct_candidate_once(self, monkeypatch):
        # test_picks_epsilon_from_grid's data, tuned over text too, which has no groups
        rng = random.Random(5)
        labels = np.repeat(np.arange(10) % 2, 4).astype(np.int8)
        priors = np.array([0.5 + 0.2 * (1 if y else -1) * rng.random() for y in labels])
        groups = hub_table(*(("user", f"u{j}", range(4 * j, 4 * j + 4)) for j in range(10)))
        start = {"user": 0.1, "text": 0.25}  # the grid holds 0.1 and not 0.25
        real, rows = evaluation.loopy_bp_batch, []

        def recording(graph, eps, **kw):
            rows.extend(eps.tolist())
            return real(graph, eps, **kw)

        monkeypatch.setattr(evaluation, "loopy_bp_batch", recording)
        tune_epsilons(priors, groups, labels, ["user", "text"], start=start)
        # a relation's epsilon changes only at its own visit: there, it is still the start's
        assert len(rows) == 1 + sum(e != start[r] for r in start for e in EPSILON_GRID) == 10

    def test_unconverged_candidate_never_chosen(self, monkeypatch, caplog):
        # ten users of four noisy messages each, alternately ham and spam
        labels = np.repeat(np.arange(10) % 2, 4).astype(np.int8)
        rng = random.Random(3)
        priors = np.array([min(max(0.5 + (0.15 if y else -0.15) + rng.gauss(0, 0.2), 0.01), 0.99)
                           for y in labels])
        groups = hub_table(*(("user", f"u{j}", range(4 * j, 4 * j + 4)) for j in range(10)))
        best = tune_epsilons(priors, groups, labels, ["user"], start=0.4)["user"]
        assert best != 0.4

        real = evaluation.loopy_bp_batch

        def best_row_unconverged(graph, rows, **kw):
            # every edge is a user edge, so a row's first entry is its user epsilon
            spam, n_iters, converged = real(graph, rows, **kw)
            return spam, n_iters, converged & (rows[:, 0] != best)

        monkeypatch.setattr(evaluation, "loopy_bp_batch", best_row_unconverged)
        with caplog.at_level("WARNING", logger="relspam.evaluation"):
            eps = tune_epsilons(priors, groups, labels, ["user"], start=0.4)
        assert eps["user"] not in (best, 0.4)
        assert [r.getMessage() for r in caplog.records] == [
            f"epsilon tuning of 'user': loopy BP did not converge at {{'user': {best}}}; "
            "candidate skipped"]


def reference_tune_epsilons(priors, groups, labels, relations, grid, default):
    """Coordinate descent with one full inference per candidate, as
    tune_epsilons once ran; priors and labels are arrays over positions."""
    eps = {r: default for r in relations}
    ids = [i for i in range(len(priors)) if not np.isnan(priors[i]) and labels[i] >= 0]
    if not ids:
        return eps

    def score(candidate):
        scores, bp = infer_posteriors(priors, groups, candidate)
        if not bp.converged:
            return -np.inf
        try:
            return aupr(scores[ids], labels[ids])
        except DataError:
            return None

    for rel in relations:
        best_eps, best_score = eps[rel], score(eps)
        if best_score is None:
            return eps
        for e in grid:
            trial = dict(eps)
            trial[rel] = e
            s = score(trial)
            if s is not None and s > best_score:
                best_eps, best_score = e, s
        eps[rel] = best_eps
    return eps


TUNE_VALUES = (0.05, 0.1, 0.2, 0.3, 0.4)


@st.composite
def tuning_inputs(draw):
    n = draw(st.integers(2, 14))
    groups = []
    for relation in ("user", "text", "link"):
        for key in ("k0", "k1", "k2")[:draw(st.integers(0, 3))]:
            members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            groups.append((relation, key, members))
    # coarse priors make ties, and so the strict tie rule, likely
    prior = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0))
    priors = over(n, {i: draw(prior) for i in sorted(
        set(draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1)))
        | {m for _, _, members in groups for m in members})})
    # labels may leave messages out, or cover one class only
    labels = np.array([draw(st.sampled_from([0, 1])) if draw(st.integers(0, 3)) else -1
                       for _ in range(n)], dtype=np.int8)
    if draw(st.integers(0, 7)) == 0:
        labels[labels >= 0] = draw(st.sampled_from([0, 1]))
    relations = draw(st.lists(st.sampled_from(["user", "text", "link", "hashtag"]), min_size=1,
                              max_size=3, unique=True))
    default = draw(st.sampled_from(TUNE_VALUES))
    grid = draw(st.lists(st.sampled_from(TUNE_VALUES), min_size=1, max_size=5))
    if draw(st.booleans()):
        grid.insert(draw(st.integers(0, len(grid))), default)  # the grid repeats the current value
    return priors, hub_table(*groups), labels, relations, tuple(grid), default


@settings(max_examples=100, deadline=None)
@given(tuning_inputs())
def test_tune_epsilons_matches_per_candidate_reference(inputs):
    priors, groups, labels, relations, grid, default = inputs
    expected = reference_tune_epsilons(priors, groups, labels, relations, grid, default)
    assert tune_epsilons(priors, groups, labels, relations, grid=grid, start=default) == expected


def test_tune_epsilons_without_groups_keeps_defaults():
    priors = np.array([0.9, 0.8, 0.2])
    eps = tune_epsilons(priors, hub_table(), np.array([1, 0, 0], dtype=np.int8), ["user"],
                        start=0.3)
    assert eps == {"user": 0.3}


def test_tune_epsilons_single_class_labels_keep_defaults():
    priors = np.array([0.9, 0.8, 0.2])
    groups = hub_table(("user", "u", [0, 1, 2]))
    eps = tune_epsilons(priors, groups, np.ones(3, dtype=np.int8), ["user", "text"], start=0.2)
    assert eps == {"user": 0.2, "text": 0.2}


def test_tune_epsilons_starts_from_configured_per_relation_values():
    # no text groups: every text candidate ties, so text keeps its configured
    # epsilon; link is left out of the configured dict and starts at 0.1
    priors = np.array([0.9, 0.4, 0.6, 0.1])
    groups = hub_table(("user", "u", [0, 1]), ("user", "v", [2, 3]))
    labels = np.array([1, 1, 0, 0], dtype=np.int8)
    start = {"user": 0.3, "text": 0.35}
    eps = tune_epsilons(priors, groups, labels, ["user", "text", "link"], start=start,
                        grid=(0.05, 0.2))
    assert eps["text"] == 0.35 and eps["link"] == 0.1
    assert eps["user"] in (0.3, 0.05, 0.2)
    assert start == {"user": 0.3, "text": 0.35}


def test_ranking_metrics_handles_single_class():
    out = ranking_metrics(np.array([0.4, 0.5, 0.1]), np.array([1, 1, -1], dtype=np.int8))
    assert out == {"n": 2, "aupr": None, "auroc": None}


def test_ranking_metrics_skip_unlabeled_messages():
    scores = np.array([0.9, 0.2, 0.5, 0.1])
    out = ranking_metrics(scores, np.array([1, 0, -1, 0], dtype=np.int8))
    assert out == {"n": 3, "aupr": 1.0, "auroc": 1.0}


class TestPipelineOptions:
    def test_psl_weight_learning_smoke(self):
        messages = planted_experiment_data(n=300, seed=9)
        config = ExperimentConfig(
            relations=["user", "text"],
            models=["independent", "psl"],
            n_subsets=2,
            fractions=(0.6, 0.15, 0.25),
            feature_mode="limited",
            limited_drop="ngrams",
            classifier=ClassifierConfig(l2=1.0, max_iter=150),
            hinge=HingeConfig(learn_steps=2),
        )
        report = evaluate_experiment(messages, [], config)
        assert [m["model"] for m in report["models"]] == ["independent", "psl"]

    def test_epsilon_tuning_smoke(self):
        messages = planted_experiment_data(n=300, seed=10)
        config = ExperimentConfig(
            relations=["user", "text"],
            models=["independent", "mrf"],
            n_subsets=2,
            fractions=(0.6, 0.15, 0.25),
            feature_mode="limited",
            limited_drop="ngrams",
            classifier=ClassifierConfig(l2=1.0, max_iter=150),
            tune_epsilons=True,
        )
        report = evaluate_experiment(messages, [], config)
        assert report["models"][1]["overall"]["aupr"] is not None

    def test_epsilon_tuning_starts_from_per_relation_epsilons(self):
        # the planted data has no hashtags, so every hashtag candidate ties
        # and the configured value must survive tuning
        messages = planted_experiment_data(n=300, seed=10)
        config = ExperimentConfig(
            relations=["user", "text", "hashtag"],
            models=["independent", "mrf"],
            n_subsets=2,
            fractions=(0.6, 0.15, 0.25),
            feature_mode="limited",
            classifier=ClassifierConfig(l2=1.0, max_iter=150),
            epsilons={"user": 0.2, "hashtag": 0.35},
            tune_epsilons=True,
        )
        table = message_table(messages)
        index = build_index(table, config.relations)
        for subset in chronological_split(table, 2, config.fractions):
            fm = featurize_subset(table, subset, config, {})
            eps = train_subset_models(index, subset, fm, config)["epsilons"]
            assert set(eps) == {"user", "text", "hashtag"} and eps["hashtag"] == 0.35

    def test_l2_grid_tuning_smoke(self):
        messages = planted_experiment_data(n=300, seed=11)
        config = ExperimentConfig(
            relations=["user", "text"],
            models=["independent"],
            n_subsets=2,
            fractions=(0.6, 0.15, 0.25),
            feature_mode="limited",
            limited_drop="ngrams",
            classifier=ClassifierConfig(l2=1.0, max_iter=150),
            l2_grid=[0.1, 1.0],
        )
        report = evaluate_experiment(messages, [], config)
        assert report["models"][0]["overall"]["aupr"] is not None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([i / 20 for i in range(21)]), st.booleans()),
                min_size=4, max_size=40))
def test_metrics_invariant_under_monotone_transform(rows):
    # scores live on a coarse grid so the squeeze stays injective in floats
    # (ties must be preserved exactly, and no new ones may appear)
    scores = [s for s, _ in rows]
    labels = [int(y) for _, y in rows]
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    squeezed = [0.1 + 0.8 / (1.0 + np.exp(-4 * (s - 0.5))) for s in scores]
    assert 0.0 <= aupr(scores, labels) <= 1.0
    assert 0.0 <= auroc(scores, labels) <= 1.0
    assert aupr(scores, labels) == pytest.approx(aupr(squeezed, labels), abs=1e-9)
    assert auroc(scores, labels) == pytest.approx(auroc(squeezed, labels), abs=1e-9)
