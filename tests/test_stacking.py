import random

import numpy as np
import pytest
import scipy.sparse as sp

from relspam.data_model import ConfigError, DataError, Group, Message, build_groups, relations_from_names
from relspam.features import FeatureMatrix
from relspam.linear import ClassifierConfig, fit_classifier
from relspam.stacking import (
    StackedModel,
    compute_pseudo_features,
    infer_stacked,
    pseudo_columns,
    train_stacked,
)


def group(relation, key, members):
    return Group(relation=relation, key=key, member_ids=tuple(sorted(members)))


class TestPseudoFeatures:
    def test_mean_over_other_members(self):
        groups = [group("user", "u", ["m1", "m2", "m3"])]
        preds = {"m1": 0.9, "m2": 0.1, "m3": 0.7}
        out = compute_pseudo_features(["m1"], groups, preds, ["user"])
        assert out["m1"]["pr_user"] == pytest.approx(0.4)

    def test_no_group_gives_neutral(self):
        out = compute_pseudo_features(["m1"], [], {"m1": 0.9}, ["user"])
        assert out["m1"]["pr_user"] == 0.5

    def test_two_member_group(self):
        groups = [group("text", "t", ["m1", "m2"])]
        out = compute_pseudo_features(["m1"], groups, {"m1": 0.2, "m2": 1.0}, ["text"])
        assert out["m1"]["pr_text"] == 1.0

    def test_self_never_included(self):
        groups = [group("user", "u", ["m1", "m2"])]
        out = compute_pseudo_features(["m1"], groups, {"m1": 1.0, "m2": 0.0}, ["user"])
        assert out["m1"]["pr_user"] == 0.0

    def test_multiple_groups_pooled(self):
        groups = [group("link", "a", ["m1", "m2"]), group("link", "b", ["m1", "m3"])]
        preds = {"m1": 0.5, "m2": 0.2, "m3": 0.8}
        out = compute_pseudo_features(["m1"], groups, preds, ["link"])
        assert out["m1"]["pr_link"] == pytest.approx(0.5)

    def test_unscored_members_skipped(self):
        groups = [group("user", "u", ["m1", "m2", "m3"])]
        out = compute_pseudo_features(["m1"], groups, {"m1": 0.9, "m2": 0.3}, ["user"])
        assert out["m1"]["pr_user"] == pytest.approx(0.3)

    def test_hard_mode_thresholds(self):
        groups = [group("user", "u", ["m1", "m2", "m3"])]
        preds = {"m1": 0.9, "m2": 0.6, "m3": 0.4}
        out = compute_pseudo_features(["m1"], groups, preds, ["user"], mode="hard")
        assert out["m1"]["pr_user"] == pytest.approx(0.5)

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(3)
        ids = [f"m{i}" for i in range(30)]
        groups = [group("user", f"u{j}", rng.sample(ids, 4)) for j in range(8)]
        preds = {mid: rng.random() for mid in ids}
        out = compute_pseudo_features(ids, groups, preds, ["user", "text"])
        for row in out.values():
            for v in row.values():
                assert 0.0 <= v <= 1.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            compute_pseudo_features(["m1"], [], {}, ["user"], mode="fuzzy")


def planted_dataset(n_users=30, msgs_per_user=6, noise=1.5, seed=0):
    """Users post several messages; each user is all-spam or all-ham; the one
    base feature is the label plus noise, so grouped predictions add signal."""
    rng = np.random.default_rng(seed)
    messages, rows, labels = [], [], {}
    t = 0
    for r in range(msgs_per_user):
        for u in range(n_users):
            label = u % 2
            mid = f"m{t:04d}"
            messages.append(Message(id=mid, user_id=f"u{u:02d}", timestamp=t, label=label))
            rows.append([label + noise * rng.standard_normal()])
            labels[mid] = label
            t += 1
    fm = FeatureMatrix([m.id for m in messages], ["signal"],
                       sp.csr_matrix(np.array(rows)))
    groups = build_groups(messages, relations_from_names(["user"]))
    return messages, fm, labels, groups


class TestTrainStacked:
    def test_k0_equals_base_model(self):
        messages, fm, labels, groups = planted_dataset()
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=0, relations=["user"],
                                config=ClassifierConfig(l2=0.1))
        base = fit_classifier(fm.select_rows([m.id for m in messages[:len(messages)]]),
                              labels, None, ClassifierConfig(l2=0.1))
        # same data, same config: identical predictions
        assert stacked.n_stacks == 0
        got = infer_stacked(stacked, fm, groups)
        want = base.predict_proba(fm)
        assert got == want

    def test_k1_learns_positive_group_weight(self):
        messages, fm, labels, groups = planted_dataset(seed=5)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                                config=ClassifierConfig(l2=0.1))
        f1 = stacked.submodels[1]
        j = stacked.base_columns.index("signal") + 1  # pr_user is right after base columns
        aug_cols = stacked.base_columns + pseudo_columns(["user"])
        j = aug_cols.index("pr_user")
        assert f1.weights[j] > 0

    def test_k2_slices_evenly(self):
        messages, fm, labels, groups = planted_dataset(n_users=10, msgs_per_user=3)
        n = len(messages)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=2, relations=["user"],
                                config=ClassifierConfig(l2=1.0))
        assert len(stacked.submodels) == 3
        third = n // 3
        # reconstruct slice sizes from the bounds rule
        sizes = [(i + 1) * n // 3 - i * n // 3 for i in range(3)]
        assert all(abs(s - third) <= 1 for s in sizes)

    def test_too_many_stacks_rejected(self):
        messages, fm, labels, groups = planted_dataset(n_users=2, msgs_per_user=1)
        with pytest.raises(DataError):
            train_stacked([m.id for m in messages], fm, labels, groups, K=5, relations=["user"])

    def test_serialization_round_trip(self):
        messages, fm, labels, groups = planted_dataset(seed=2)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                                config=ClassifierConfig(l2=0.5))
        restored = StackedModel.from_json(stacked.to_json())
        a = infer_stacked(stacked, fm, groups)
        b = infer_stacked(restored, fm, groups)
        assert a == b


class TestInferStacked:
    def test_unrelated_message_sees_neutral_ratios(self):
        messages, fm, labels, groups = planted_dataset(seed=1)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                                config=ClassifierConfig(l2=0.1))
        lone = FeatureMatrix(["x1"], ["signal"], sp.csr_matrix(np.array([[0.7]])))
        lone2 = FeatureMatrix(["x2"], ["signal"], sp.csr_matrix(np.array([[0.7]])))
        a = infer_stacked(stacked, lone, [])
        b = infer_stacked(stacked, lone2, [])
        assert a["x1"] == b["x2"]  # function of the base features only

    def test_identical_grouped_messages_get_identical_scores(self):
        messages, fm, labels, groups = planted_dataset(seed=3)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                                config=ClassifierConfig(l2=0.1))
        twins = FeatureMatrix(["t1", "t2"], ["signal"],
                              sp.csr_matrix(np.array([[0.4], [0.4]])))
        test_groups = [group("user", "tw", ["t1", "t2"])]
        preds = infer_stacked(stacked, twins, test_groups)
        assert preds["t1"] == pytest.approx(preds["t2"], abs=1e-12)

    def test_campaign_lift_over_base_model(self):
        # campaign spam shares a text key; ham texts repeat too, so grouped ham
        # pools genuinely low scores instead of the neutral default
        rng = np.random.default_rng(11)
        messages, rows, labels = [], [], {}
        for i in range(400):
            is_campaign = i % 10 == 0
            label = 1 if is_campaign else 0
            mid = f"m{i:04d}"
            text = "campaign blast" if is_campaign else f"chat {i % 25}"
            messages.append(Message(id=mid, user_id=f"u{i % 40:02d}", text=text,
                                    timestamp=i, label=label))
            rows.append([label + 2.0 * rng.standard_normal()])
            labels[mid] = label
        fm = FeatureMatrix([m.id for m in messages], ["signal"], sp.csr_matrix(np.array(rows)))
        groups = build_groups(messages, relations_from_names(["text"]))
        train_msgs, test_msgs = messages[:300], messages[300:]
        fm_train = fm.select_rows([m.id for m in train_msgs])
        fm_test = fm.select_rows([m.id for m in test_msgs])
        train_groups = build_groups(train_msgs, relations_from_names(["text"]))
        stacked = train_stacked([m.id for m in train_msgs], fm_train, labels, train_groups, K=1,
                                relations=["text"], config=ClassifierConfig(l2=0.1))
        context = {m.id: float(labels[m.id]) for m in train_msgs}
        final = infer_stacked(stacked, fm_test, groups, context_scores=context)
        base = stacked.submodels[0].predict_proba(fm_test)
        spam_ids = [m.id for m in test_msgs if m.label == 1]
        assert np.mean([final[i] for i in spam_ids]) > np.mean([base[i] for i in spam_ids])

    def test_missing_relation_errors_when_declared(self):
        messages, fm, labels, groups = planted_dataset(seed=4)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                                config=ClassifierConfig(l2=0.1))
        with pytest.raises(ConfigError):
            infer_stacked(stacked, fm, groups, available_relations=["text"])

    def test_column_mismatch_rejected(self):
        messages, fm, labels, groups = planted_dataset(seed=6)
        stacked = train_stacked([m.id for m in messages], fm, labels, groups, K=0, relations=["user"])
        bad = FeatureMatrix(["z"], ["other"], sp.csr_matrix(np.array([[1.0]])))
        with pytest.raises(DataError):
            infer_stacked(stacked, bad, groups)

    def test_deterministic_end_to_end(self):
        messages, fm, labels, groups = planted_dataset(seed=8)
        a = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                          config=ClassifierConfig(l2=0.2))
        b = train_stacked([m.id for m in messages], fm, labels, groups, K=1, relations=["user"],
                          config=ClassifierConfig(l2=0.2))
        assert infer_stacked(a, fm, groups) == infer_stacked(b, fm, groups)


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0)), min_size=2, max_size=12))
def test_pooled_ratios_stay_in_unit_interval(rows):
    ids = [f"m{i}" for i in range(len(rows))]
    by_user = {}
    preds = {}
    for mid, (u, p) in zip(ids, rows):
        by_user.setdefault(f"u{u}", []).append(mid)
        preds[mid] = p
    groups = [group("user", u, ms) for u, ms in sorted(by_user.items()) if len(ms) >= 2]
    out = compute_pseudo_features(ids, groups, preds, ["user"])
    for row in out.values():
        assert 0.0 <= row["pr_user"] <= 1.0
