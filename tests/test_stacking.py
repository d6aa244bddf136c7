import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relspam.data_model import (ConfigError, DataError, build_index, message_table,
                                read_artifact, write_artifact)
from relspam.features import FeatureMatrix
from relspam.linear import ClassifierConfig, fit_classifier
from relspam.stacking import (
    NEUTRAL_SCORE,
    PSEUDO_PREFIX,
    StackedModel,
    compute_pseudo_features,
    infer_stacked,
    pseudo_columns,
    train_stacked,
)

from tables import csr_of, hub_table, over


def pseudo(rows, groups, scores, relations) -> list:
    return compute_pseudo_features(rows, groups, scores, relations).tolist()


class TestPseudoFeatures:
    def test_mean_over_other_members(self):
        out = pseudo([0], hub_table(("user", "u", [0, 1, 2])), np.array([0.9, 0.1, 0.7]), ["user"])
        assert out[0][0] == pytest.approx(0.4)

    def test_no_group_gives_neutral(self):
        assert pseudo([0], hub_table(), np.array([0.9]), ["user"]) == [[0.5]]

    def test_two_member_group(self):
        out = pseudo([0], hub_table(("text", "t", [0, 1])), np.array([0.2, 1.0]), ["text"])
        assert out == [[1.0]]

    def test_self_never_included(self):
        out = pseudo([0], hub_table(("user", "u", [0, 1])), np.array([1.0, 0.0]), ["user"])
        assert out == [[0.0]]

    def test_multiple_groups_pooled(self):
        groups = hub_table(("link", "a", [0, 1]), ("link", "b", [0, 2]))
        out = pseudo([0], groups, np.array([0.5, 0.2, 0.8]), ["link"])
        assert out[0][0] == pytest.approx(0.5)

    def test_unscored_members_skipped(self):
        out = pseudo([0], hub_table(("user", "u", [0, 1, 2])), over(3, {0: 0.9, 1: 0.3}), ["user"])
        assert out[0][0] == pytest.approx(0.3)

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(3)
        groups = hub_table(*(("user", f"u{j}", rng.sample(range(30), 4)) for j in range(8)))
        out = compute_pseudo_features(range(30), groups, np.array([rng.random() for _ in range(30)]),
                                      ["user", "text"])
        assert out.shape == (30, 2)
        assert ((out >= 0.0) & (out <= 1.0)).all()


def reference_pseudo_features(message_ids: list, groups: list, predictions: dict,
                              relations: list) -> dict:
    """compute_pseudo_features over id sets and dicts, as it was before it
    became array code; `groups` are (relation, member ids)."""
    peers: dict = {rel: {} for rel in relations}
    wanted = set(message_ids)
    for relation, member_ids in groups:
        if relation not in peers:
            continue
        rel_peers = peers[relation]
        for mid in member_ids:
            if mid in wanted:
                rel_peers.setdefault(mid, set()).update(m for m in member_ids if m != mid)

    out = {}
    for mid in message_ids:
        row = {}
        for rel in relations:
            others = peers[rel].get(mid)
            scores = []
            if others:
                for other in sorted(others):
                    p = predictions.get(other)
                    if p is not None:
                        scores.append(float(p))
            # added left to right, as `sum` did before Python 3.12
            total = 0
            for score in scores:
                total += score
            row[PSEUDO_PREFIX + rel] = total / len(scores) if scores else NEUTRAL_SCORE
        out[mid] = row
    return out


def ids_of(n: int) -> list:
    return [f"m{i:02d}" for i in range(n)]


@st.composite
def pooling_inputs(draw):
    """Several keys per message in one relation, unscored co-members and rows
    whose co-members are all unscored; ids sort in position order."""
    n = draw(st.integers(1, 14))
    ids = ids_of(n)
    groups = []
    for relation in ("user", "text", "link"):
        for key in range(draw(st.integers(0, 4))):
            members = draw(st.lists(st.integers(0, n - 1), min_size=min(2, n), max_size=n,
                                    unique=True))
            if len(members) >= 2:
                groups.append((relation, f"k{key}", members))
    score = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.1, 0.7]), st.floats(0.0, 1.0))
    scores = {i: draw(score) for i in draw(st.lists(st.integers(0, n - 1), unique=True))}
    rows = draw(st.lists(st.integers(0, n - 1), unique=True))
    relations = draw(st.lists(st.sampled_from(["user", "text", "link", "hashtag"]), unique=True))
    return ids, groups, scores, rows, relations


@settings(max_examples=300, deadline=None)
@given(pooling_inputs())
# two groups of one relation share the co-member 1, which counts once
@example((ids_of(4), [("link", "a", [0, 1, 2]), ("link", "b", [0, 1, 3])],
          {1: 0.7, 2: 0.1, 3: 0.4}, [0], ["link"]))
# rows out of position order; row 0's mean adds 0.1, 0.2, 0.9, 0.3 in that order
@example((ids_of(5), [("user", "u", [0, 1, 2, 3, 4]), ("text", "t", [1, 4])],
          {0: 0.5, 1: 0.1, 2: 0.2, 3: 0.9, 4: 0.3}, [4, 0, 2], ["user", "text"]))
# every co-member of row 0 is unscored
@example((ids_of(3), [("user", "u", [0, 1, 2])], {0: 0.9}, [0, 1], ["user"]))
# no rows
@example((ids_of(3), [("user", "u", [0, 1, 2])], {0: 0.9, 1: 0.1}, [], ["user"]))
# a configured relation with no groups
@example((ids_of(3), [("user", "u", [0, 1])], {0: 0.9, 1: 0.1}, [0, 1, 2], ["hashtag", "user"]))
def test_array_pooling_matches_id_reference_bit_for_bit(inputs):
    ids, groups, scores, rows, relations = inputs
    got = compute_pseudo_features(rows, hub_table(*groups), over(len(ids), scores), relations)
    want = reference_pseudo_features(
        [ids[i] for i in rows], [(r, [ids[i] for i in m]) for r, _, m in groups],
        {ids[i]: p for i, p in scores.items()}, relations)
    assert got.shape == (len(rows), len(relations))
    assert got.tolist() == [[want[ids[i]][PSEUDO_PREFIX + r] for r in relations] for i in rows]


def planted_dataset(n_users=30, msgs_per_user=6, noise=1.5, seed=0):
    """Users post several messages; each user is all-spam or all-ham; the one
    base feature is the label plus noise, so grouped predictions add signal.
    -> (feature matrix, message index grouped by user)"""
    rng = np.random.default_rng(seed)
    messages, rows = [], []
    t = 0
    for r in range(msgs_per_user):
        for u in range(n_users):
            label = u % 2
            messages.append(dict(id=f"m{t:04d}", user_id=f"u{u:02d}", timestamp=t, label=label))
            rows.append([label + noise * rng.standard_normal()])
            t += 1
    fm = FeatureMatrix(["signal"], csr_of(np.array(rows)))
    return fm, build_index(message_table(messages), ["user"])


def no_context(index):
    return np.full(len(index.ids), np.nan)


def everything(index):
    return np.arange(len(index.ids))


class TestTrainStacked:
    def test_k0_equals_base_model(self):
        fm, index = planted_dataset()
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=0,
                                relations=["user"], config=ClassifierConfig(l2=0.1))
        base = fit_classifier(fm, index.labels, ClassifierConfig(l2=0.1))
        # same data, same config: identical predictions
        assert len(stacked.submodels) - 1 == 0
        got = infer_stacked(stacked, fm, everything(index), index.table, no_context(index))
        assert got.tolist() == base.predict_proba(fm).tolist()

    def test_k1_learns_positive_group_weight(self):
        fm, index = planted_dataset(seed=5)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig(l2=0.1))
        f1 = stacked.submodels[1]
        aug_cols = fm.column_names + pseudo_columns(["user"])
        j = aug_cols.index("pr_user")
        assert f1.weights[j] > 0

    def test_k2_slices_evenly(self):
        fm, index = planted_dataset(n_users=10, msgs_per_user=3)
        n = len(index.ids)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=2,
                                relations=["user"], config=ClassifierConfig(l2=1.0))
        assert len(stacked.submodels) == 3
        third = n // 3
        # reconstruct slice sizes from the bounds rule
        sizes = [(i + 1) * n // 3 - i * n // 3 for i in range(3)]
        assert all(abs(s - third) <= 1 for s in sizes)

    def test_serialization_round_trip(self):
        fm, index = planted_dataset(seed=2)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig(l2=0.5))
        restored = StackedModel.from_dict(json.loads(json.dumps(stacked.to_dict())))
        args = (fm, everything(index), index.table, no_context(index))
        assert infer_stacked(stacked, *args).tolist() == infer_stacked(restored, *args).tolist()

    def test_version_1_file_rejected(self, tmp_path):
        # version 1 carried a pooling mode, which may have been "hard"
        fm, index = planted_dataset(n_users=4, msgs_per_user=3)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig())
        path = tmp_path / "models.json"
        write_artifact(path, "relspam-models v1",
                       {**stacked.to_dict(), "version": 1, "pseudo_mode": "hard"})
        with pytest.raises(DataError, match="models.json: .*'version'.*rerun the train stage"):
            read_artifact(path, "relspam-models v1", "train",
                          lambda header, _: StackedModel.from_dict(header))


class TestInferStacked:
    def test_unrelated_message_sees_neutral_ratios(self):
        fm, index = planted_dataset(seed=1)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig(l2=0.1))
        lone = FeatureMatrix(["signal"], csr_of(np.array([[0.7]])))
        a = infer_stacked(stacked, lone, [0], hub_table(), np.full(1, np.nan))
        b = infer_stacked(stacked, lone, [1], hub_table(), np.full(2, np.nan))
        assert a[0] == b[0]  # function of the base features only

    def test_identical_grouped_messages_get_identical_scores(self):
        fm, index = planted_dataset(seed=3)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig(l2=0.1))
        twins = FeatureMatrix(["signal"], csr_of(np.array([[0.4], [0.4]])))
        preds = infer_stacked(stacked, twins, [0, 1], hub_table(("user", "tw", [0, 1])),
                              np.full(2, np.nan))
        assert preds[0] == pytest.approx(preds[1], abs=1e-12)

    def test_campaign_lift_over_base_model(self):
        # campaign spam shares a text key; ham texts repeat too, so grouped ham
        # pools genuinely low scores instead of the neutral default
        rng = np.random.default_rng(11)
        messages, rows = [], []
        for i in range(400):
            is_campaign = i % 10 == 0
            label = 1 if is_campaign else 0
            text = "campaign blast" if is_campaign else f"chat {i % 25}"
            messages.append(dict(id=f"m{i:04d}", user_id=f"u{i % 40:02d}", text=text,
                                 timestamp=i, label=label))
            rows.append([label + 2.0 * rng.standard_normal()])
        fm = FeatureMatrix(["signal"], csr_of(np.array(rows)))
        index = build_index(message_table(messages), ["text"])
        fm_train, fm_test = fm.rows(0, 300), fm.rows(300, 400)
        stacked = train_stacked(np.arange(300), fm_train, index.labels, index.groups((0, 300)),
                                K=1, relations=["text"], config=ClassifierConfig(l2=0.1))
        context = over(400, dict(enumerate(index.labels[:300].tolist())))
        final = infer_stacked(stacked, fm_test, np.arange(300, 400), index.table, context)
        base = stacked.submodels[0].predict_proba(fm_test)
        spam = index.labels[300:] == 1
        assert final[spam].mean() > base[spam].mean()

    def test_missing_relation_errors_when_declared(self):
        fm, index = planted_dataset(seed=4)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=1,
                                relations=["user"], config=ClassifierConfig(l2=0.1))
        with pytest.raises(ConfigError):
            infer_stacked(stacked, fm, everything(index), index.table, no_context(index),
                          available_relations=["text"])

    def test_column_mismatch_rejected(self):
        fm, index = planted_dataset(seed=6)
        stacked = train_stacked(everything(index), fm, index.labels, index.table, K=0,
                                relations=["user"], config=ClassifierConfig())
        bad = FeatureMatrix(["other"], csr_of(np.array([[1.0]])))
        with pytest.raises(DataError):
            infer_stacked(stacked, bad, [0], index.table, no_context(index))

    def test_deterministic_end_to_end(self):
        fm, index = planted_dataset(seed=8)
        a, b = (train_stacked(everything(index), fm, index.labels, index.table, K=1,
                              relations=["user"], config=ClassifierConfig(l2=0.2))
                for _ in range(2))
        args = (fm, everything(index), index.table, no_context(index))
        assert infer_stacked(a, *args).tolist() == infer_stacked(b, *args).tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0)), min_size=2, max_size=12))
def test_pooled_ratios_stay_in_unit_interval(rows):
    by_user = {}
    for i, (u, _) in enumerate(rows):
        by_user.setdefault(u, []).append(i)
    groups = hub_table(*(("user", str(u), ms) for u, ms in sorted(by_user.items()) if len(ms) >= 2))
    out = compute_pseudo_features(range(len(rows)), groups, np.array([p for _, p in rows]), ["user"])
    assert ((out >= 0.0) & (out <= 1.0)).all()
