"""The benchmark's workloads: a full relspam config each, every key pinned here.

Every key of `relspam.cli.DEFAULT_CONFIG` and every `GeneratorConfig` field
is set here, so a change to a default cannot change what a workload runs.
Only the seed comes from the command line.

BENCHMARK.json lists paper20k and joint40k. paper20k_par runs on request
(`--workload paper20k_par` or `all`): a run of it costs as much as one of
paper20k, and a third listed workload would not fit the benchmark's budget
of 4 + 22 runs per workload in 3420 s.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# sha256 of the generated inputs at seed 42: a generator change that alters
# them fails the run as input drift instead of passing as a speed-up.
PINNED_INPUTS = {
    ("20k", 42): {
        "messages.jsonl": "6b0008398e655e7208a54f851f5f9c435697975491c912b8ba2ff01f7f24e36d",
        "follows.tsv": "24f0096637998c3404f6d055772b7034ec0c5c7e6c01d49ff524d33df4e9b14e",
    },
    ("40k", 42): {
        "messages.jsonl": "8215cafc3e66650198c437bff99dd07d6e4c8613be1c56b6afdb93bbf45c621e",
        "follows.tsv": "b83f6c874c36c1a849c5458115272e22954101ac427ba33ae15c3b16a9e2c75a",
    },
}

_BASE = {
    "version": 1,
    "threads": 1,
    "messages": None,
    "follows": None,
    "relations": ["user", "text", "link"],
    "models": ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"],
    "n_subsets": 10,
    "fractions": [0.7, 0.05, 0.25],
    "feature_mode": "full",
    "limited_drop": "ngrams",
    "ngram_top_k": 10000,
    "classifier": {"l2": 1.0, "max_iter": 300, "tol": 1e-6, "method": "batch"},
    "l2_grid": None,
    "epsilons": 0.1,
    "tune_epsilons": False,
    "mrf_prior_center": "auto",
    "hinge": {"exponent": 2, "weights": None, "learn_steps": 0, "learning_rate": 0.05},
    "stack_mode": "soft",
    "dump_pr_curves": False,
    "generator": {
        "n_users": 400,
        "n_messages": 20000,
        "spam_prevalence": 0.05,
        "n_campaigns": 40,
        "campaign_size_jitter": 0.3,
        "text_reuse_prob": 0.9,
        "link_reuse_prob": 0.8,
        "follower_density": 4.0,
        "ham_vocab_size": 400,
        "spam_vocab_size": 80,
        "feature_noise": 0.45,
    },
}


def _with(**changes) -> dict:
    cfg = copy.deepcopy(_BASE)
    for key, value in changes.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


@dataclass
class Workload:
    """BENCHMARK.json gives each workload's reason; these are the settings."""

    name: str
    inputs: str  # workloads with the same inputs name share generated data
    config: dict

    def full_config(self, seed: int, out: str) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = seed
        cfg["out"] = out
        return cfg

    @property
    def threads(self) -> int:
        return self.config["threads"]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="paper20k",
        inputs="20k",
        config=_with(),
    ),
    Workload(
        name="paper20k_par",
        inputs="20k",
        config=_with(threads=2),
    ),
    Workload(
        name="joint40k",
        inputs="40k",
        config=_with(
            relations=["user", "text", "link", "hashtag", "track"],
            models=["independent", "mrf", "psl", "sgl1+psl"],
            feature_mode="limited",
            tune_epsilons=True,
            hinge={"learn_steps": 3},
            generator={"n_messages": 40000, "n_users": 800, "n_campaigns": 80},
        ),
    ),
]}
