import hashlib

import pytest

from relspam.cli import cmd_generate, load_config
from relspam.data_model import MESSAGE_FIELDS, ConfigError, build_groups, relations_from_names
from relspam.synth import GeneratorConfig, generate

from tables import rows_of


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(n_messages=500, n_users=50, n_campaigns=5)
        a_msgs, a_follows = generate(cfg, 7)
        b_msgs, b_follows = generate(cfg, 7)
        assert a_msgs == b_msgs
        assert a_follows == b_follows

    def test_different_seeds_differ(self):
        base = dict(n_messages=500, n_users=50, n_campaigns=5)
        a, _ = generate(GeneratorConfig(**base), 1)
        b, _ = generate(GeneratorConfig(**base), 2)
        assert a != b

    def test_prevalence_within_rounding(self):
        cfg = GeneratorConfig(n_messages=20000, n_users=400,
                              spam_prevalence=0.05, n_campaigns=40)
        messages, _ = generate(cfg, 0)
        n_spam = sum(1 for m in messages if m["label"] == 1)
        assert n_spam == 1000

    def test_full_text_reuse_forms_one_group_per_campaign(self):
        cfg = GeneratorConfig(n_messages=1000, n_users=80, n_campaigns=8,
                              text_reuse_prob=1.0, feature_noise=0.0,
                              spam_prevalence=0.08)
        messages, _ = generate(cfg, 3)
        spam_ids = {m["id"] for m in messages if m["label"] == 1}
        groups = build_groups(rows_of(messages), relations_from_names(["text"]))
        spam_groups = [g for g in groups if set(g.member_ids) & spam_ids]
        # each campaign is exactly one pure-spam text group
        assert len(spam_groups) == 8
        covered = set()
        for g in spam_groups:
            assert set(g.member_ids) <= spam_ids
            covered |= set(g.member_ids)
        assert covered == spam_ids

    def test_messages_sorted_and_valid(self):
        cfg = GeneratorConfig(n_messages=800, n_users=60, n_campaigns=6)
        messages, _ = generate(cfg, 5)
        # each a record of every message field, which the reader's check passes
        assert all(set(m) == {f.name for f in MESSAGE_FIELDS} for m in messages)
        rows = rows_of(messages)
        assert len({m.id for m in rows}) == len(rows)
        assert all(m.label is not None for m in rows)
        timestamps = [m.timestamp for m in rows]
        assert timestamps == sorted(timestamps)

    def test_ham_also_forms_groups(self):
        cfg = GeneratorConfig(n_messages=1000, n_users=80, n_campaigns=6)
        messages, _ = generate(cfg, 9)
        ham_ids = {m["id"] for m in messages if m["label"] == 0}
        groups = build_groups(rows_of(messages), relations_from_names(["user", "text"]))
        pure_ham = [g for g in groups if set(g.member_ids) <= ham_ids]
        assert len(pure_ham) > 10

    def test_spammers_less_connected(self):
        cfg = GeneratorConfig(n_messages=800, n_users=100, n_campaigns=6)
        _, follows = generate(cfg, 2)
        spam_out = sum(1 for a, _ in follows if a.startswith("spammer"))
        ham_out = sum(1 for a, _ in follows if not a.startswith("spammer"))
        n_spammers = len({a for a, _ in follows if a.startswith("spammer")})
        n_ham = len({a for a, _ in follows if not a.startswith("spammer")})
        assert spam_out / max(n_spammers, 1) < ham_out / max(n_ham, 1)

    # the run's config judges the generator's settings and its seed before `generate` runs
    def test_infeasible_campaign_count_rejected(self):
        with pytest.raises(ConfigError, match="'generator.n_campaigns'"):
            GeneratorConfig(n_messages=100, spam_prevalence=0.01, n_campaigns=5).check()

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            load_config(None, {"seed": seed})

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError, match="'generator.text_reuse_prob'"):
            GeneratorConfig(text_reuse_prob=1.5).check()


def test_generate_stage_writes_the_pinned_bytes(tmp_path):
    # the continuous-integration smoke generator at seed 1
    cfg = load_config(None, {"out": str(tmp_path), "seed": 1, "generator": {
        "n_messages": 1500, "n_users": 100, "n_campaigns": 12}})
    assert cmd_generate(cfg) == 0
    data = (tmp_path / "data" / "messages.jsonl").read_bytes()
    assert len(data) == 291_659
    assert hashlib.sha256(data).hexdigest() == \
        "510972ae04da1b07abbe8eda89397259445a139b8c20b5eab6897baafee56de1"
    assert hashlib.sha256((tmp_path / "data" / "follows.tsv").read_bytes()).hexdigest() == \
        "dcbf56ba4713b29c030db1ac94c0eca8d6dbb46a61d820a804e1a3a148709f36"
