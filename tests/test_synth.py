import pytest

from relspam.data_model import ConfigError, build_groups, relations_from_names
from relspam.synth import GeneratorConfig, generate


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
        n_spam = sum(1 for m in messages if m.label == 1)
        assert n_spam == 1000

    def test_full_text_reuse_forms_one_group_per_campaign(self):
        cfg = GeneratorConfig(n_messages=1000, n_users=80, n_campaigns=8,
                              text_reuse_prob=1.0, feature_noise=0.0,
                              spam_prevalence=0.08)
        messages, _ = generate(cfg, 3)
        spam_ids = {m.id for m in messages if m.label == 1}
        groups = build_groups(messages, relations_from_names(["text"]))
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
        assert len({m.id for m in messages}) == len(messages)
        assert all(m.label is not None for m in messages)
        timestamps = [m.timestamp for m in messages]
        assert timestamps == sorted(timestamps)

    def test_ham_also_forms_groups(self):
        cfg = GeneratorConfig(n_messages=1000, n_users=80, n_campaigns=6)
        messages, _ = generate(cfg, 9)
        ham_ids = {m.id for m in messages if m.label == 0}
        groups = build_groups(messages, relations_from_names(["user", "text"]))
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

    def test_infeasible_campaign_count_rejected(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(n_messages=100, spam_prevalence=0.01, n_campaigns=5), 0)

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            generate(GeneratorConfig(), seed)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(text_reuse_prob=1.5), 0)
