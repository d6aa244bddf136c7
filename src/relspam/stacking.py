"""Stacked relational learning: a chain of classifiers where each one consumes
pseudo-relational features built from the previous one's predictions.

Training uses the holdout scheme: the (chronologically sorted) training data
is split into K+1 contiguous slices, the base model trains on the first, and
each later submodel trains on its own slice augmented with grouped-prediction
ratios rolled forward from the earlier submodels.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_model import ConfigError, DataError
from .features import FeatureMatrix, hstack_features
from .linear import ClassifierConfig, LinearModel, fit_classifier, recenter_scores

log = logging.getLogger(__name__)

PSEUDO_PREFIX = "pr_"
NEUTRAL_SCORE = 0.5


def pseudo_columns(relations: list) -> list:
    return [PSEUDO_PREFIX + r for r in relations]


def compute_pseudo_features(message_ids: list, groups: list, predictions: dict,
                            relations: list, mode: str = "soft",
                            threshold: float = 0.5) -> dict:
    """Per message and relation: mean predicted spamminess of its co-members.

    The message's own prediction is always excluded. Messages in several
    groups of one relation pool the union of the other members. Co-members
    without a prediction are skipped; with no scored co-member at all the
    neutral 0.5 is emitted. `mode="hard"` averages thresholded labels
    instead of raw probabilities.
    """
    if mode not in ("soft", "hard"):
        raise ConfigError(f"pseudo-feature mode must be 'soft' or 'hard', got {mode!r}")
    peers: dict = {rel: {} for rel in relations}
    wanted = set(message_ids)
    for g in groups:
        if g.relation not in peers:
            continue
        rel_peers = peers[g.relation]
        for mid in g.member_ids:
            if mid in wanted:
                rel_peers.setdefault(mid, set()).update(m for m in g.member_ids if m != mid)

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
                        scores.append(float(p >= threshold) if mode == "hard" else float(p))
            row[PSEUDO_PREFIX + rel] = sum(scores) / len(scores) if scores else NEUTRAL_SCORE
        out[mid] = row
    return out


def _pseudo_matrix(fm: FeatureMatrix, pseudo: dict, relations: list) -> FeatureMatrix:
    cols = pseudo_columns(relations)
    block = np.zeros((len(fm.row_ids), len(cols)))
    for i, mid in enumerate(fm.row_ids):
        row = pseudo[mid]
        for j, c in enumerate(cols):
            block[i, j] = row[c]
    return hstack_features(fm, cols, sp.csr_matrix(block))


@dataclass
class StackedModel:
    submodels: list  # LinearModel f^0 .. f^K
    relations: list
    base_columns: list
    pseudo_mode: str = "soft"
    score_center: float | None = None  # scores recentered so this maps to 0.5 in the pools

    @property
    def n_stacks(self) -> int:
        return len(self.submodels) - 1

    def to_json(self) -> str:
        return json.dumps({
            "version": 1,
            "relations": self.relations,
            "base_columns_n": len(self.base_columns),
            "base_columns": self.base_columns,
            "pseudo_mode": self.pseudo_mode,
            "score_center": self.score_center,
            "submodels": [json.loads(m.to_json()) for m in self.submodels],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StackedModel":
        d = json.loads(text)
        submodels = [LinearModel.from_json(json.dumps(m)) for m in d["submodels"]]
        return cls(submodels=submodels, relations=d["relations"],
                   base_columns=d["base_columns"], pseudo_mode=d["pseudo_mode"],
                   score_center=d.get("score_center"))


def _slice_bounds(n: int, parts: int) -> list:
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def train_stacked(ids: list, fm: FeatureMatrix, labels: dict, groups: list,
                  K: int, relations: list, scale_columns: list | None = None,
                  config: ClassifierConfig | None = None,
                  pseudo_mode: str = "soft",
                  score_center: float | str | None = "auto") -> StackedModel:
    """Fit f^0..f^K on K+1 contiguous time slices of the training messages,
    given by their ids in chronological order.

    Predictions roll forward through the chain: slice k sees pseudo-relational
    features computed from f^{k-1}'s predictions on that same slice, plus the
    gold labels of the earlier (past) slices. With `score_center="auto"` the
    scores entering the pools are recentered so the training prevalence maps
    to the 0.5 neutral point.
    """
    if K < 0:
        raise ConfigError("K must be >= 0")
    if K + 1 > len(ids):
        raise DataError(f"cannot build {K + 1} stack slices from {len(ids)} messages")
    config = config or ClassifierConfig()
    if ids != list(fm.row_ids):
        fm = fm.select_rows(ids)
    if score_center == "auto":
        labeled = [labels[i] for i in ids if i in labels]
        score_center = (sum(labeled) / len(labeled)) if labeled else None

    bounds = _slice_bounds(len(ids), K + 1)
    slice_ids = [ids[a:b] for a, b in bounds]
    submodels = [fit_classifier(fm.select_rows(slice_ids[0]), labels, scale_columns, config)]
    model = StackedModel(submodels=submodels, relations=list(relations),
                         base_columns=list(fm.column_names), pseudo_mode=pseudo_mode,
                         score_center=score_center)

    # standardizing the ratio columns keeps ridge shrinkage from flattening
    # them: their within-slice variance is small but their signal is not
    aug_scale = list(scale_columns or []) + pseudo_columns(relations)
    for k in range(1, K + 1):
        fm_k = fm.select_rows(slice_ids[k])
        # earlier slices are the past: their gold labels are known, mirroring how
        # training neighbors contribute labels at inference time
        past = {mid: float(labels[mid])
                for s in slice_ids[:k] for mid in s if mid in labels}
        preds = _roll_forward(model, fm_k, groups, context=past)
        pseudo = _pooled_features(model, slice_ids[k], groups, past, preds)
        fm_aug = _pseudo_matrix(fm_k, pseudo, relations)
        submodels.append(fit_classifier(fm_aug, labels, aug_scale, config))
    return model


def _pooled_features(model: StackedModel, ids: list, groups: list,
                     context: dict | None, preds: dict) -> dict:
    score_map = dict(context) if context else {}
    score_map.update(preds)
    if model.score_center is not None:
        score_map = recenter_scores(score_map, model.score_center)
    return compute_pseudo_features(ids, groups, score_map, model.relations, model.pseudo_mode)


def _roll_forward(model: StackedModel, fm_base: FeatureMatrix, groups: list,
                  context: dict | None = None) -> dict:
    """Apply the submodel chain to one slice, re-deriving pseudo features at each step."""
    preds = model.submodels[0].predict_proba(fm_base)
    for f_k in model.submodels[1:]:
        pseudo = _pooled_features(model, fm_base.row_ids, groups, context, preds)
        fm_aug = _pseudo_matrix(fm_base, pseudo, model.relations)
        preds = f_k.predict_proba(fm_aug)
    return preds


def infer_stacked(model: StackedModel, fm_test: FeatureMatrix, groups: list,
                  context_scores: dict | None = None,
                  available_relations: list | None = None) -> dict:
    """Chain inference on test rows: f^0, then alternate pseudo features and f^k.

    `groups` should be built over train and test jointly; `context_scores`
    supplies spamminess values (gold labels or predictions) for non-test
    group members so test messages can draw on their training neighbors.
    """
    if available_relations is not None:
        missing = [r for r in model.relations if r not in available_relations]
        if missing:
            raise ConfigError(f"relations configured at train time are absent now: {missing}")
    if list(fm_test.column_names) != list(model.base_columns):
        raise DataError("test feature columns do not match the stacked model's base columns")
    return _roll_forward(model, fm_test, groups, context=context_scores)
