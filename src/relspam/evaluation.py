"""Metrics and the chronological multi-subset evaluation protocol.

The protocol is written once. `prepare_dataset` checks and splits a
dataset's `MessageTable`, `build_index` indexes it, and then come per-subset
steps on in-memory inputs:
`featurize_subset` builds a subset's features, fit on its training slice,
`train_subset_models` fits the independent classifier and every artifact the
roster needs (tuning on validation), `infer_subset_models` predicts the test
slice with every roster model (stacked, joint, and combined), and
`aggregate_report` concatenates the test predictions across subsets and scores
them overall and on the inductive / transductive partition. The report has one
form, the JSON object `report.json` holds; `report_json` and `report_text`
render it as `report.json` and `report.txt`. The steps after
`featurize_subset` take the dataset's `MessageIndex` in place of its table
and know a message by its chronological position: labels, priors and scores
are arrays over positions, and a subset's predictions are one array per model
over its test slice. `evaluate_experiment` runs these steps in one process
on the table of its list of records; the `cli` stages run the same steps,
featurize on the table it reads from the JSONL, each record checked the
same way, through the same `prepare_dataset`, and only read and write the
artifacts between them.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field, asdict, replace
from operator import attrgetter

import numpy as np

from .data_model import (
    RELATION_NAMES,
    ConfigError,
    DataError,
    GroupTable,
    MessageIndex,
    MessageTable,
    SubsetSplit,
    build_index,
    check_setting,
    chronological_split,
    is_int,
    is_number,
    message_table,
    read_artifact,
    write_artifact,
)
from .features import FeatureMatrix, compute_graph_feature_table, feature_matrix
from .hinge import HingeConfig, HingeWeights, infer_hinge_posteriors, learn_weights
from .linear import ClassifierConfig, LinearModel, fit_classifier, recenter_scores
from .mrf import build_factor_graph, edge_epsilons, epsilon_of, infer_posteriors, loopy_bp_batch
from .stacking import StackedModel, infer_stacked, train_stacked

log = logging.getLogger(__name__)

EPSILON_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)
MODELS_FORMAT = "relspam-models v2"
# the config keys a report records
REPORTED_SETTINGS = ("relations", "models", "n_subsets", "fractions", "feature_mode",
                     "limited_drop", "seed")


# --- ranking metrics ---

def _check_binary(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    if y.size == 0 or not (set(np.unique(y)) <= {0.0, 1.0}):
        raise DataError("labels must be binary 0/1")
    if y.min() == y.max():
        raise DataError("metric undefined for single-class labels")
    return y


def _tie_block_ends(s: np.ndarray) -> np.ndarray:
    """Exclusive end index of each run of equal scores in the sorted array `s`."""
    return np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1


def aupr(scores, labels) -> float:
    """Non-interpolated average precision; tied scores form one block.

    The descending-score sweep stops at the end of each tie block. Each
    block's precision tp/seen is at most 1 and its weights sum exactly to
    n_pos, so the correctly rounded sum cannot exceed 1.
    """
    y = _check_binary(labels)
    s = np.asarray(scores, dtype=float)
    if s.shape != y.shape:
        raise DataError("scores and labels must align")
    order = np.argsort(-s, kind="stable")
    seen = _tie_block_ends(s[order])
    tp = np.cumsum(y[order])[seen - 1]
    block_tp = np.diff(tp, prepend=0.0)
    return float(math.fsum(block_tp * (tp / seen)) / y.sum())


def auroc(scores, labels) -> float:
    """Mann-Whitney statistic with midrank tie handling."""
    y = _check_binary(labels)
    s = np.asarray(scores, dtype=float)
    if s.shape != y.shape:
        raise DataError("scores and labels must align")
    order = np.argsort(s, kind="stable")
    ends = _tie_block_ends(s[order])
    starts = np.concatenate([[0], ends[:-1]])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    n_pos = y.sum()
    n_neg = len(s) - n_pos
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def ranking_metrics(scores: np.ndarray, labels: np.ndarray) -> dict:
    """AUPR/AUROC of the labeled scores (labels 0/1, or -1 for an unlabeled
    message, which is left out); None when the metric is undefined."""
    labeled = labels >= 0
    s, y = scores[labeled], labels[labeled]
    out = {"n": len(y)}
    try:
        out["aupr"] = aupr(s, y)
        out["auroc"] = auroc(s, y)
    except DataError:
        out["aupr"] = out["auroc"] = None
    return out


# --- inductive / transductive split ---

def inductive_partition(index: MessageIndex, train: tuple, test: tuple) -> np.ndarray:
    """A test message is transductive iff it shares a group with a training
    message; train and test are position ranges. -> the inductive flag of
    each test position."""
    group = index.table.group
    has_train = np.bincount(group[index.inside(train)], minlength=len(index.table)) > 0
    shared = np.zeros(len(index.ids), dtype=bool)
    shared[index.table.members[index.inside(test) & has_train[group]]] = True
    return ~shared[slice(*test)]


# --- connected-component coverage ---

def component_coverage(index: MessageIndex) -> dict:
    """The report's `coverage`: the co-membership graph's connected component sizes, largest
    first and then by earliest message ("component_sizes"), and the cumulative fraction of all,
    spam and ham messages they cover ("all_cumulative", "spam_cumulative", "ham_cumulative")."""
    n = len(index.ids)
    # min-label propagation with pointer jumping: each root is its component's earliest position
    t = index.table
    root, member, starts = np.arange(n), t.members, np.cumsum(t.sizes) - t.sizes
    while len(member):
        hooked = root.copy()
        np.minimum.at(hooked, root[member], np.minimum.reduceat(root[member], starts)[t.group])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            break
        root = hooked
    sizes = np.bincount(root, minlength=n)
    order = np.flatnonzero(sizes)
    order = order[np.argsort(-sizes[order], kind="stable")]

    def cumulative(of: np.ndarray) -> list:
        total = int(of.sum())
        got = np.cumsum(np.bincount(root[of], minlength=n)[order])
        return (got / total).tolist() if total else [0.0] * len(order)

    return {"component_sizes": sizes[order].tolist(),
            "all_cumulative": cumulative(np.ones(n, dtype=bool)),
            "spam_cumulative": cumulative(index.labels == 1),
            "ham_cumulative": cumulative(index.labels == 0)}


# --- experiment configuration and roster ---

_ROSTER_NAME = re.compile(r"sgl([1-9][0-9]*)(?:\+(mrf|psl))?|(mrf|psl)")


def parse_model_name(name) -> tuple:
    """-> (stack depth or None, joint method or None) of a roster name:
    independent, sglK (K >= 1), mrf, psl, sglK+mrf or sglK+psl."""
    if name == "independent":
        return None, None
    match = _ROSTER_NAME.fullmatch(name) if isinstance(name, str) else None
    if match is None:
        raise ConfigError(f"config key 'models' names an unknown roster model: {name!r}")
    stacks, joint, alone = match.groups()
    return (int(stacks) if stacks else None), joint or alone


def _is_epsilon(value) -> bool:
    return is_number(value) and 0.0 < value < 0.5


def _is_positive_int(value) -> bool:
    return is_int(value) and value >= 1


def _is_non_negative(value) -> bool:
    return is_number(value) and value >= 0


@dataclass
class ExperimentConfig:
    """The settings of one experiment; the field names are the config file's
    keys, and `classifier` and `hinge` are sections of their own."""

    relations: list = field(default_factory=lambda: ["user", "text", "link"])
    models: list = field(default_factory=lambda: ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"])
    n_subsets: int = 10
    fractions: tuple = (0.7, 0.05, 0.25)  # train, validation, test share of each subset
    feature_mode: str = "full"  # or "limited", which drops the family `limited_drop`
    limited_drop: str = "ngrams"  # or "graph"
    ngram_top_k: int = 10000
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    l2_grid: list | None = None          # validation-tuned when set
    epsilons: dict | float = 0.1  # shared, or per relation (0.1 for one left out)
    tune_epsilons: bool = False  # a validation pass over each relation's epsilon, from `epsilons`
    hinge: HingeConfig = field(default_factory=HingeConfig)
    seed: int = 0

    def keeps(self, family: str) -> bool:
        """Whether the feature mode keeps the feature family "graph" or "ngrams"."""
        return not (self.feature_mode == "limited" and self.limited_drop == family)

    def required_stacks(self) -> list:
        return sorted({k for k, _ in map(parse_model_name, self.models) if k})

    def check(self) -> None:
        """Raise a `ConfigError` naming the first setting of the wrong type or
        out of range: the one judge of a setting, which the layers beneath
        take as checked (`read_models` runs it on the trained values too)."""
        def per_relation(ok):  # read after `relations` has passed
            return lambda v: (isinstance(v, dict) and set(v) <= set(self.relations)
                              and all(map(ok, v.values())))

        for key, ok, accepts in (
            ("seed", is_int, "an integer"),
            ("relations", lambda v: isinstance(v, list) and all(r in RELATION_NAMES for r in v)
             and len(set(v)) == len(v),
             f"a list of relation tags from {RELATION_NAMES}, each once"),
            # parse_model_name raises on an unknown name, so only strings reach `set`
            ("models", lambda v: isinstance(v, list) and v != [] and all(map(parse_model_name, v))
             and len(set(v)) == len(v), "a non-empty list of roster names, each once"),
            ("n_subsets", _is_positive_int, "a positive integer"),
            ("fractions", lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(
                map(_is_non_negative, v)) and abs(sum(v) - 1.0) <= 1e-9,
             "three non-negative numbers summing to 1"),
            ("feature_mode", ("full", "limited").__contains__, "'full' or 'limited'"),
            ("limited_drop", ("ngrams", "graph").__contains__, "'ngrams' or 'graph'"),
            ("ngram_top_k", _is_positive_int, "a positive integer"),
            ("classifier.l2", _is_non_negative, "a non-negative number"),
            ("classifier.max_iter", _is_positive_int, "a positive integer"),
            ("classifier.tol", _is_non_negative, "a non-negative number"),
            ("l2_grid", lambda v: v is None or isinstance(v, list) and all(map(_is_non_negative, v)),
             "null or a list of non-negative numbers"),
            ("epsilons", lambda v: _is_epsilon(v) or per_relation(_is_epsilon)(v),
             "a number in (0, 0.5), or an object mapping configured relations to one"),
            ("tune_epsilons", lambda v: isinstance(v, bool), "true or false"),
            *((f"hinge.weights.{key}", _is_non_negative, "a non-negative number")
              for key in ("neg", "prior")),
            *((f"hinge.weights.{key}", per_relation(_is_non_negative),
               "an object mapping configured relations to non-negative numbers")
              for key in ("relation_c", "relation_d")),
            ("hinge.learn_steps", lambda v: is_int(v) and v >= 0, "a non-negative integer"),
            ("hinge.learning_rate", lambda v: is_number(v) and v > 0, "a positive number"),
        ):
            value = attrgetter(key)(self)
            check_setting(ok(value), key, accepts, value)


def tune_epsilons(priors: np.ndarray, groups: GroupTable, labels: np.ndarray, relations: list,
                  start: dict | float, grid=EPSILON_GRID) -> dict:
    """One coordinate-descent pass over the per-relation epsilon grid,
    maximizing the AUPR of the joint posteriors over the labeled messages
    with a prior (`priors` over positions, NaN where none), from the
    epsilons `start` (shared, or per relation with 0.1 for one left out:
    `mrf.epsilon_of`), which arrive checked by the config.

    The graph is built once, and the start is scored once. Each relation
    then runs its grid values other than its current epsilon as one batched
    BP call, a row of edge epsilons each: such a candidate differs from every
    earlier one at a relation not yet tuned, so no candidate runs twice. A
    grid value must beat the best score so far strictly to replace it. A
    candidate whose BP did not converge scores -inf, so it never does.
    """
    eps = {r: epsilon_of(start, r) for r in relations}
    scored = np.flatnonzero(~np.isnan(priors) & (labels >= 0))
    if not len(scored) or not relations:
        return eps
    graph = build_factor_graph(priors, groups, eps)
    y = labels[scored]
    try:
        _check_binary(y)
    except DataError:
        return eps  # AUPR is undefined on these labels whatever the epsilons

    def scores(rel: str, candidates: list) -> list:
        spam, _, converged = loopy_bp_batch(
            graph, np.array([edge_epsilons(groups, c) for c in candidates]))
        out = []
        for candidate, marginals, ok in zip(candidates, spam, converged):
            if not ok:  # not a fixed point: never ranked
                log.warning("epsilon tuning of %r: loopy BP did not converge at %s; "
                            "candidate skipped", rel, candidate)
                out.append(-np.inf)
                continue
            # a grouped message scores its marginal, any other its prior
            joint = priors.copy()
            joint[graph.messages] = marginals[:len(graph.messages)]
            out.append(aupr(joint[scored], y))
        return out

    best_score, = scores(relations[0], [dict(eps)])  # a copy, as a log record keeps it
    for rel in relations:
        grid_eps = [e for e in dict.fromkeys(grid) if e != eps[rel]]
        if not grid_eps:
            continue
        for e, s in zip(grid_eps, scores(rel, [{**eps, rel: e} for e in grid_eps])):
            if s > best_score:
                eps[rel], best_score = e, s
    return eps


def tune_l2(fm_train, labels, fm_val, val_labels, config: ClassifierConfig, grid: list) -> float:
    """Pick the regularization strength with the best validation AUPR; the
    labels are those of the matrices' rows, and the `grid` and `config`
    arrive checked by the config. Validation labels of one class keep `config.l2`."""
    best_l2, best_score = config.l2, None
    labeled = val_labels >= 0
    if len(set(val_labels[labeled].tolist())) < 2:
        return config.l2
    for l2 in grid:
        model = fit_classifier(fm_train, labels, replace(config, l2=l2))
        s = aupr(model.predict_proba(fm_val)[labeled], val_labels[labeled])
        if best_score is None or s > best_score:
            best_l2, best_score = l2, s
    return best_l2


# --- per-subset steps of the protocol ---

def prepare_dataset(table: MessageTable, follows: list, config: ExperimentConfig) -> tuple:
    """The checks and set-up of a message table that featurize and
    `evaluate_experiment` share, run before either starts any other work:
    -> (its split plan as `SubsetSplit`s, the per-user graph-feature table
    every subset's matrix reads; empty when there are no follows, None when
    the feature mode drops the graph block). Each then builds the table's
    index (`build_index`): featurize beside its subsets.

    A `DataError` names the first duplicate id, or the subset whose training
    slice is empty, shorter than the deepest stacked model of the roster
    needs (K+1 messages for sglK), or holds a message without a label.
    """
    duplicates = sorted(mid for mid, n in Counter(table.ids).items() if n > 1)
    if duplicates:
        raise DataError("dataset failed validation: " + "; ".join(
            f"duplicate message id: {mid}" for mid in duplicates[:5]))
    plan = chronological_split(table, config.n_subsets, config.fractions)
    deepest = max(config.required_stacks(), default=0)
    for i, subset in enumerate(plan):
        n_train = subset.train[1] - subset.train[0]
        if n_train == 0:
            raise DataError(f"subset {i}: the training slice is empty; raise fractions[0]")
        if n_train <= deepest:
            raise DataError(f"subset {i}: {n_train} training messages, but sgl{deepest} needs "
                            f"{deepest + 1}; raise fractions[0] or lower n_subsets")
        unlabeled = np.flatnonzero(table.labels[slice(*subset.train)] < 0)
        if len(unlabeled):
            first = table.ids[subset.train[0] + unlabeled[0]]
            raise DataError(f"subset {i}: {len(unlabeled)} training messages lack a label "
                            f"(first: {first!r}); every training message needs one")
    graph_table = compute_graph_feature_table(follows) if config.keeps("graph") else None
    return plan, graph_table


def featurize_subset(table: MessageTable, subset: SubsetSplit, config: ExperimentConfig,
                     graph_table: dict | None) -> FeatureMatrix:
    """The matrix of the subset's train, validation and test rows, its columns
    fit on the training slice, knowing only the training labels; `graph_table`
    is `prepare_dataset`'s."""
    (a, b), end = subset.train, subset.test[1]
    labels = np.full(end - a, -1)
    labels[:b - a] = table.labels[a:b]
    return feature_matrix(table.rows(a, end), b - a, labels, graph_table,
                          config.ngram_top_k if config.keeps("ngrams") else None)


def center_mrf_priors(priors: np.ndarray) -> np.ndarray:
    """The priors recentered on their mean for the MRF; left as they are when it is 0."""
    center = float(np.mean(priors)) if len(priors) else 0.5
    return recenter_scores(priors, center) if center else priors


def _rows(fm: FeatureMatrix, subset: SubsetSplit, span: tuple) -> FeatureMatrix:
    """The rows of a subset's matrix at the position range `span`."""
    base = subset.train[0]
    return fm.rows(span[0] - base, span[1] - base)


def _over_positions(n: int, span: tuple, values) -> np.ndarray:
    """A float array over n positions: `values` at the range `span`, NaN elsewhere."""
    out = np.full(n, np.nan)
    out[slice(*span)] = values
    return out


def train_subset_models(index: MessageIndex, subset: SubsetSplit, fm: FeatureMatrix,
                        config: ExperimentConfig) -> dict:
    """Fit every artifact the roster needs on one subset's training slice,
    tuning on its validation slice; `fm` is the subset's feature matrix."""
    fm_train, fm_val = _rows(fm, subset, subset.train), _rows(fm, subset, subset.validation)
    labels = index.labels[slice(*subset.train)]
    clf_config = config.classifier
    if config.l2_grid:
        best = tune_l2(fm_train, labels, fm_val, index.labels[slice(*subset.validation)],
                       clf_config, config.l2_grid)
        clf_config = replace(clf_config, l2=best)
    artifacts = {"independent": fit_classifier(fm_train, labels, clf_config)}
    stacks = config.required_stacks()
    if stacks:
        groups_train = index.groups(subset.train)
    for k in stacks:
        artifacts[f"sgl{k}"] = train_stacked(
            np.arange(*subset.train), fm_train, index.labels, groups_train, K=k,
            relations=config.relations, config=clf_config)

    joints = {parse_model_name(m)[1] for m in config.models}
    has_val = subset.validation[1] > subset.validation[0]
    hinge = config.hinge
    learn_psl = "psl" in joints and hinge.learn_steps > 0 and has_val
    tune_mrf = "mrf" in joints and config.tune_epsilons and has_val
    if learn_psl or tune_mrf:
        val_groups = index.groups(subset.validation)
        val_priors = artifacts["independent"].predict_proba(fm_val)
    n = len(index.ids)
    if "psl" in joints:
        weights = hinge.weights
        if learn_psl:
            weights, _ = learn_weights(hinge, index.labels, val_groups,
                                       _over_positions(n, subset.validation, val_priors))
        artifacts["psl_weights"] = weights
    if "mrf" in joints:
        eps = config.epsilons
        if tune_mrf:
            centered = center_mrf_priors(val_priors)
            eps = tune_epsilons(_over_positions(n, subset.validation, centered), val_groups,
                                index.labels, config.relations, eps)
        artifacts["epsilons"] = eps
    return artifacts


def _artifact_codecs(config: ExperimentConfig) -> dict:
    """(to JSON, from JSON) of each artifact `train_subset_models` fits for
    the roster of `config`, by name."""
    joints = {parse_model_name(m)[1] for m in config.models}
    stacked = (StackedModel.to_dict, StackedModel.from_dict)
    return {"independent": (LinearModel.to_dict, LinearModel.from_dict),
            **{f"sgl{k}": stacked for k in config.required_stacks()},
            **({"psl_weights": (asdict, lambda d: HingeWeights(**d))} if "psl" in joints else {}),
            **({"epsilons": (lambda eps: eps,) * 2} if "mrf" in joints else {})}


def write_models(path, artifacts: dict, config: ExperimentConfig) -> None:
    """Write one subset's `train_subset_models` artifacts as its models.json."""
    write_artifact(path, MODELS_FORMAT, {name: encode(artifacts[name]) for name, (encode, _)
                                         in _artifact_codecs(config).items()})


def read_models(path, config: ExperimentConfig) -> dict:
    """The artifacts of a `write_models` file that the roster of `config`
    needs, each required; a `DataError` names the first one missing, or the
    first epsilon or hinge weight that the config would not accept."""
    codecs = _artifact_codecs(config)

    def parse(header, _):
        missing = [name for name in codecs if name not in header]
        if missing:
            raise ValueError(f"no {missing[0]!r} artifact, which the roster needs")
        artifacts = {name: decode(header[name]) for name, (_, decode) in codecs.items()}
        weights = artifacts.get("psl_weights", config.hinge.weights)
        replace(config, epsilons=artifacts.get("epsilons", config.epsilons),
                hinge=replace(config.hinge, weights=weights)).check()
        return artifacts
    return read_artifact(path, MODELS_FORMAT, "train", parse)


# the count of unconverged solver calls that `infer_subset_models` keeps, by solver
DIAGNOSTICS = ("bp_nonconverged", "map_nonconverged")


def infer_subset_models(artifacts: dict, index: MessageIndex, subset: SubsetSplit,
                        fm: FeatureMatrix, config: ExperimentConfig) -> tuple:
    """Test predictions for every roster model on one subset; `fm` is the
    subset's feature matrix. -> (scores of the test positions by model, diagnostics)

    Joint models see training messages as observed evidence: gold labels act
    as (clamped) priors in the MRF and as fixed values in the HL-MRF.
    """
    test = slice(*subset.test)
    fm_test = _rows(fm, subset, subset.test)
    groups_tt = index.groups(subset.train, subset.test)
    context = _over_positions(len(index.ids), subset.train, index.labels[slice(*subset.train)])
    diagnostics = dict.fromkeys(DIAGNOSTICS, 0)

    base_preds = artifacts["independent"].predict_proba(fm_test)
    stacked_preds = {}
    for k in config.required_stacks():
        stacked_preds[k] = infer_stacked(artifacts[f"sgl{k}"], fm_test, np.arange(*subset.test),
                                         groups_tt, context, available_relations=config.relations)

    def joint_scores(joint: str, priors_test: np.ndarray) -> np.ndarray:
        if joint == "mrf":
            priors = context.copy()
            priors[test] = center_mrf_priors(priors_test)
            scores, bp = infer_posteriors(priors, groups_tt, artifacts["epsilons"])
            diagnostics["bp_nonconverged"] += 0 if bp.converged else 1
            return scores[test]
        scores, map_result = infer_hinge_posteriors(
            _over_positions(len(context), subset.test, priors_test), groups_tt,
            artifacts["psl_weights"], observed=context)
        diagnostics["map_nonconverged"] += 0 if map_result.converged else 1
        return scores[test]

    preds_by_model = {}
    for name in config.models:
        stacks, joint = parse_model_name(name)
        prior_preds = base_preds if stacks is None else stacked_preds[stacks]
        preds_by_model[name] = prior_preds if joint is None else joint_scores(joint, prior_preds)
    return preds_by_model, diagnostics


def sum_diagnostics(per_subset: list) -> dict:
    """Solver diagnostics of every subset, summed by key."""
    return {k: sum(d[k] for d in per_subset) for k in per_subset[0]}


# --- full protocol ---

def aggregate_report(config: ExperimentConfig, index: MessageIndex, plan: list,
                     subset_preds: list, diagnostics: dict) -> dict:
    """Concatenate per-subset test predictions and score every roster model,
    overall and on the inductive partition; `plan` is the `SubsetSplit`s.

    -> the report, the JSON object `report_json` writes: "models" (per roster
    model in order, its "model" name and the `ranking_metrics` of its
    "overall", "inductive" and "per_subset" test scores), "n_messages",
    "n_subsets", "n_test", "n_inductive", "n_transductive", "coverage"
    (`component_coverage`), "diagnostics" (the solvers', summed) and
    "config" (the `REPORTED_SETTINGS`).
    """
    test_labels = [index.labels[slice(*subset.test)] for subset in plan]
    labels = np.concatenate(test_labels)
    inductive = np.concatenate([inductive_partition(index, subset.train, subset.test)
                                for subset in plan])
    splits = np.cumsum([len(y) for y in test_labels])[:-1]
    model_entries = []
    for name in config.models:
        scores = np.concatenate([preds[name] for preds in subset_preds])
        model_entries.append({
            "model": name,
            "overall": ranking_metrics(scores, labels),
            "inductive": ranking_metrics(scores[inductive], labels[inductive]),
            "per_subset": [ranking_metrics(s, y)
                           for s, y in zip(np.split(scores, splits), test_labels)],
        })
    return {
        "models": model_entries,
        "n_messages": len(index.ids),
        "n_subsets": len(subset_preds),
        "n_test": len(labels),
        "n_inductive": int(inductive.sum()),
        "n_transductive": int((~inductive).sum()),
        "coverage": component_coverage(index),
        "diagnostics": diagnostics,
        # as JSON gives them back: the fractions a list, no list shared with the config
        "config": json.loads(json.dumps({key: getattr(config, key) for key in REPORTED_SETTINGS})),
    }


def report_json(report: dict) -> str:
    """The text of `report.json`: the report's keys sorted, indented by 2."""
    return json.dumps(report, sort_keys=True, indent=2)


def report_text(report: dict) -> str:
    """The table of `report.txt`: each model's AUPR and AUROC, inductive and
    overall, to 4 places ("n/a" where undefined), then the test counts."""
    headers = ["model", "aupr_ind", "aupr_all", "auroc_ind", "auroc_all"]
    rows = []
    for entry in report["models"]:
        values = [entry[part][metric] for metric in ("aupr", "auroc")
                  for part in ("inductive", "overall")]
        rows.append([entry["model"], *("n/a" if v is None else f"{v:.4f}" for v in values)])
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in [headers, ["-" * w for w in widths], *rows]]
    lines += ["", f"test messages: {report['n_test']} (inductive {report['n_inductive']}, "
                  f"transductive {report['n_transductive']})"]
    return "\n".join(lines)


def evaluate_experiment(records: list, follows: list, config: ExperimentConfig) -> dict:
    """Run the full chronological protocol in memory on decoded JSON records,
    each checked as `run-all` checks a line of its JSONL (`message_table`), a
    missing timestamp its index in `records` -> `aggregate_report`'s report."""
    config.check()
    table = message_table(records)
    plan, graph_table = prepare_dataset(table, follows, config)
    index = build_index(table, config.relations)
    subset_preds, diagnostics = [], []
    for i, subset in enumerate(plan):
        fm = featurize_subset(table, subset, config, graph_table)
        artifacts = train_subset_models(index, subset, fm, config)
        preds, diag = infer_subset_models(artifacts, index, subset, fm, config)
        subset_preds.append(preds)
        diagnostics.append(diag)
        log.info("subset %d/%d done", i + 1, len(plan))
    return aggregate_report(config, index, plan, subset_preds, sum_diagnostics(diagnostics))
