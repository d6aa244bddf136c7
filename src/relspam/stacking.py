"""Stacked relational learning: a chain of classifiers where each one consumes
pseudo-relational features built from the previous one's predictions.

Training uses the holdout scheme: the (chronologically sorted) training data
is split into K+1 contiguous slices, the base model trains on the first, and
each later submodel trains on its own slice augmented with grouped-prediction
ratios rolled forward from the earlier submodels. Messages are chronological
positions; scores, labels and the ratios are arrays over them. A message's
co-members under a relation are the members of every group of the relation
it is in, each once, found by joining the group table's edges on group; its
ratio is their mean score. A submodel's columns
are the base columns and one ratio column per relation, and its column hash
is the one check that a matrix matches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import SPAM, ConfigError, DataError, GroupTable
from .features import CSR, FeatureMatrix, concatenated_ranges
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
        members, group = groups.members[edge], groups.group[edge]  # in group order
        by_member = np.argsort(members, kind="stable")
        first = np.searchsorted(members, rows, sorter=by_member)
        stop = np.searchsorted(members, rows, side="right", sorter=by_member)
        # (i, g) for each group g of rows[i], then (i, m) for each member m of g
        query = np.repeat(np.arange(len(rows)), stop - first)
        joined = group[by_member[concatenated_ranges(first, stop)]]
        first, stop = np.searchsorted(group, joined), np.searchsorted(group, joined, "right")
        query = np.repeat(query, stop - first)
        co = members[concatenated_ranges(first, stop)]
        # each co-member once, in position order, so that each mean adds them in that order
        pairs = np.sort(query * len(scores) + co)  # np.unique hashes: slower
        row, co = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], len(scores))
        keep = (co != rows[row]) & ~np.isnan(scores[co])
        total = np.bincount(row[keep], weights=scores[co[keep]], minlength=len(rows))
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
    K >= 1 arrives from the roster's sglK, and `evaluation.prepare_dataset`
    has found at least the K + 1 rows it needs, each labeled.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if fm.shape[0] != len(rows):
        raise DataError(f"{fm.shape[0]} feature rows for {len(rows)} training messages")
    y = labels[rows]

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
                         fm.matrix.hstack(CSR.from_dense(pseudo)))


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
