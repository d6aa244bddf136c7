"""Stacked relational learning: a chain of classifiers where each one consumes
pseudo-relational features built from the previous one's predictions.

Training uses the holdout scheme: the (chronologically sorted) training data
is split into K+1 contiguous slices, the base model trains on the first, and
each later submodel trains on its own slice augmented with grouped-prediction
ratios rolled forward from the earlier submodels. Messages are chronological
positions; scores, labels and the ratios are arrays over them. With B a
relation's (position × group) incidence matrix, a message's row of the
co-membership product B Bᵀ lists its co-members over every group of the
relation, each once, and its ratio is their mean score. A submodel's columns
are the base columns and one ratio column per relation, and its column hash
is the one check that a matrix matches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_model import SPAM, ConfigError, DataError, GroupTable
from .features import FeatureMatrix
from .linear import ClassifierConfig, LinearModel, fit_classifier, recenter_scores

PSEUDO_PREFIX = "pr_"
NEUTRAL_SCORE = 0.5


def pseudo_columns(relations: list) -> list:
    return [PSEUDO_PREFIX + r for r in relations]


def compute_pseudo_features(rows, groups: GroupTable, scores: np.ndarray,
                            relations: list) -> np.ndarray:
    """Per message and relation: mean predicted spamminess of its co-members.

    `rows` are message positions and `scores` a float array over positions,
    NaN where unscored; -> a (len(rows), len(relations)) array. The message's
    own score is always excluded. Messages in several groups of one relation
    pool the union of the other members. Unscored co-members are skipped;
    with no scored co-member at all the neutral 0.5 is emitted. A mean adds
    its co-members' scores in position order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out = np.full((len(rows), len(relations)), NEUTRAL_SCORE)
    for j, rel in enumerate(relations):
        if rel not in groups.relations:
            continue
        edge = groups.relation == groups.relations.index(rel)
        incidence = sp.csr_matrix((np.ones(edge.sum()), (groups.members[edge], groups.group[edge])),
                                  shape=(len(scores), len(groups)))
        # row i lists each co-member of rows[i] once, over every group of the relation
        co = incidence[rows] @ incidence.T
        co.sort_indices()  # so each mean adds its co-members in position order
        row = np.repeat(np.arange(len(rows)), np.diff(co.indptr))
        keep = (co.indices != rows[row]) & ~np.isnan(scores[co.indices])
        total = np.bincount(row[keep], weights=scores[co.indices[keep]], minlength=len(rows))
        count = np.bincount(row[keep], minlength=len(rows))
        scored = count > 0
        out[scored, j] = total[scored] / count[scored]
    return out


@dataclass
class StackedModel:
    submodels: list  # LinearModel f^0 .. f^K
    relations: list
    score_center: float  # the training prevalence, which recentered scores map to 0.5 in the pools

    def to_dict(self) -> dict:
        return {"relations": self.relations, "score_center": self.score_center,
                "submodels": [m.to_dict() for m in self.submodels]}

    @classmethod
    def from_dict(cls, d: dict) -> "StackedModel":
        return cls(**{**d, "submodels": [LinearModel.from_dict(m) for m in d["submodels"]]})


def train_stacked(rows, fm: FeatureMatrix, labels: np.ndarray, groups: GroupTable,
                  K: int, relations: list, config: ClassifierConfig) -> StackedModel:
    """Fit f^0..f^K on K+1 contiguous time slices of the training messages:
    the rows of `fm`, at the chronological positions `rows`, labeled by
    `labels`, the labels of every position.

    Predictions roll forward through the chain: slice k sees pseudo-relational
    features computed from f^{k-1}'s predictions on that same slice, plus the
    gold labels of the earlier (past) slices. The scores entering the pools
    are recentered so the training prevalence maps to the 0.5 neutral point.
    """
    if K < 0:
        raise ConfigError("K must be >= 0")
    rows = np.asarray(rows, dtype=np.int64)
    if K + 1 > len(rows):
        raise DataError(f"cannot build {K + 1} stack slices from {len(rows)} messages")
    if fm.shape[0] != len(rows):
        raise DataError(f"{fm.shape[0]} feature rows for {len(rows)} training messages")
    y = labels[rows]
    unlabeled = rows[y < 0]
    if len(unlabeled):
        raise DataError(f"{len(unlabeled)} training messages lack labels "
                        f"(first: position {unlabeled[0]})")

    bounds = [(i * len(rows) // (K + 1), (i + 1) * len(rows) // (K + 1)) for i in range(K + 1)]
    submodels = [fit_classifier(fm.rows(*bounds[0]), y[slice(*bounds[0])], config)]
    model = StackedModel(submodels=submodels, relations=list(relations),
                         score_center=int((y == SPAM).sum()) / len(y))

    for a, b in bounds[1:]:
        fm_k = fm.rows(a, b)
        # earlier slices are the past: their gold labels are known, mirroring how
        # training neighbors contribute labels at inference time
        past = np.full(len(labels), np.nan)
        past[rows[:a]] = y[:a]
        preds = _roll_forward(model, fm_k, rows[a:b], groups, past)
        submodels.append(fit_classifier(_with_pseudo(model, fm_k, rows[a:b], groups, past, preds),
                                        y[a:b], config))
    return model


def _with_pseudo(model: StackedModel, fm: FeatureMatrix, rows, groups: GroupTable,
                 context: np.ndarray, preds: np.ndarray) -> FeatureMatrix:
    """`fm` and one `pr_` column per relation: the slice's rows, scored
    `preds`, pooled over their co-members with the scores in `context`."""
    scores = context.copy()
    scores[rows] = preds
    pseudo = compute_pseudo_features(rows, groups, recenter_scores(scores, model.score_center),
                                     model.relations)
    return FeatureMatrix(list(fm.column_names) + pseudo_columns(model.relations),
                         sp.hstack([fm.matrix, sp.csr_matrix(pseudo)], format="csr"))


def _roll_forward(model: StackedModel, fm_base: FeatureMatrix, rows, groups: GroupTable,
                  context: np.ndarray) -> np.ndarray:
    """Apply the submodel chain to one slice, re-deriving pseudo features at each step."""
    preds = model.submodels[0].predict_proba(fm_base)
    for f_k in model.submodels[1:]:
        preds = f_k.predict_proba(_with_pseudo(model, fm_base, rows, groups, context, preds))
    return preds


def infer_stacked(model: StackedModel, fm_test: FeatureMatrix, rows, groups: GroupTable,
                  context: np.ndarray, available_relations: list | None = None) -> np.ndarray:
    """Chain inference on test rows, at the positions `rows`: f^0, then
    alternate pseudo features and f^k. -> the rows' scores.

    `groups` should be built over train and test jointly; `context` holds a
    spamminess value (gold label or prediction) for each non-test group
    member that has one, NaN elsewhere, so test messages can draw on their
    training neighbors.
    """
    if available_relations is not None:
        missing = [r for r in model.relations if r not in available_relations]
        if missing:
            raise ConfigError(f"relations configured at train time are absent now: {missing}")
    return _roll_forward(model, fm_test, rows, groups, context)
