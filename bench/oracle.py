"""Brute-force ranking metrics, and the check of a run's report against them.

The oracle shares no code with `relspam.evaluation`: AUPR is the mean over
positives of the precision at that positive's score (every message scored at
least as high is retrieved, so tied scores form one block), and AUROC counts
every positive/negative pair, a tie as half.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def aupr(scores, labels) -> float | None:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    pos = s[y == 1]
    if pos.size in (0, s.size):
        return None
    retrieved = s[None, :] >= pos[:, None]
    hits = retrieved[:, y == 1].sum(axis=1)
    return math.fsum(hits / retrieved.sum(axis=1)) / pos.size


def auroc(scores, labels) -> float | None:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    pos, neg = s[y == 1], s[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    above = int((pos[:, None] > neg[None, :]).sum())
    tied = int((pos[:, None] == neg[None, :]).sum())
    return (2 * above + tied) / (2 * pos.size * neg.size)


def inductive_ids(test_ids, train_ids, groups) -> list:
    """Test messages that share no group with a training message."""
    train, test = set(train_ids), set(test_ids)
    linked = set()
    for g in groups:
        members = set(g.member_ids)
        if not members.isdisjoint(train):
            linked |= members & test
    return sorted(test - linked)


def read_predictions(path: Path) -> dict:
    scores = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        mid, value = line.split("\t")
        scores[mid] = float(value)
    return scores


def _close(reported, expected) -> bool:
    if reported is None or expected is None:
        return reported is None and expected is None
    return abs(reported - expected) <= TOLERANCE


def check_report(out_dir: Path, test_ids: list, inductive: list, labels: dict) -> list:
    """Problems found in out_dir/report.json against the oracle; empty when it agrees.

    `test_ids` and `inductive` hold one id list per subset.
    """
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    all_test = [m for ids in test_ids for m in ids]
    all_ind = [m for ids in inductive for m in ids]
    if report["n_test"] != len(all_test) or report["n_inductive"] != len(all_ind):
        problems.append(f"report counts {report['n_test']}/{report['n_inductive']} test/inductive, "
                        f"oracle {len(all_test)}/{len(all_ind)}")
    for entry in report["models"]:
        name = entry["model"]
        scores = {}
        for i, ids in enumerate(test_ids):
            part = read_predictions(out_dir / "predictions" / name / f"subset_{i:02d}.tsv")
            if sorted(part) != sorted(ids):
                problems.append(f"{name} subset {i}: predicted ids differ from the test slice")
            scores.update(part)
        for split, ids in (("overall", all_test), ("inductive", all_ind)):
            labeled = [m for m in ids if m in labels]
            s = [scores[m] for m in labeled]
            y = [labels[m] for m in labeled]
            for metric, fn in (("aupr", aupr), ("auroc", auroc)):
                expected, reported = fn(s, y), entry[split][metric]
                if not _close(reported, expected):
                    problems.append(f"{name} {split} {metric}: report {reported!r}, oracle {expected!r}")
    return problems


def aupr_above_one(report: dict) -> int:
    """AUPR values in the report (overall, inductive and per subset) above 1.0."""
    values = []
    for entry in report["models"]:
        values += [entry["overall"]["aupr"], entry["inductive"]["aupr"]]
        values += [m["aupr"] for m in entry["per_subset"]]
    return sum(1 for v in values if v is not None and v > 1.0)
