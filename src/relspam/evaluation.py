"""Metrics and the chronological multi-subset evaluation protocol.

The protocol is written once, as per-subset steps on in-memory inputs:
`featurize_subset` fits the feature pipeline on the training slice,
`train_subset_models` fits the independent classifier and every artifact the
roster needs (tuning on validation), `infer_subset_models` predicts the test
slice with every roster model (stacked, joint, and combined), and
`aggregate_report` concatenates the test predictions across subsets and scores
them overall and on the inductive / transductive partition; all but the first
take the dataset's `MessageIndex` in place of its messages.
`evaluate_experiment` runs these steps in one process; the `cli` stages run
the same steps and only read and write the artifacts between them.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field, asdict, replace
from operator import attrgetter

import numpy as np

from .data_model import (
    RELATION_NAMES,
    ConfigError,
    DataError,
    GroupTable,
    MessageIndex,
    SplitPlan,
    SubsetSplit,
    build_index,
    check_setting,
    chronological_split,
    is_int,
    is_number,
    labels_of,
    sort_chronologically,
    validate_dataset,
)
from .features import (
    FeatureConfig,
    FeatureMatrix,
    FeaturePipeline,
    build_follower_graph,
    compute_graph_feature_table,
    scalable_columns,
)
from .hinge import HingeConfig, infer_hinge_posteriors, learn_weights
from .linear import ClassifierConfig, fit_classifier, recenter_scores
from .mrf import build_factor_graph, infer_posteriors, loopy_bp_batch
from .stacking import infer_stacked, train_stacked

log = logging.getLogger(__name__)

EPSILON_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)
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


def _pr_sweep(scores, labels) -> tuple:
    """(true positives, items seen, n_pos) at the end of each tie block along
    the descending-score sweep."""
    y = _check_binary(labels)
    s = np.asarray(scores, dtype=float)
    if s.shape != y.shape:
        raise DataError("scores and labels must align")
    order = np.argsort(-s, kind="stable")
    seen = _tie_block_ends(s[order])
    return np.cumsum(y[order])[seen - 1], seen, y.sum()


def aupr(scores, labels) -> float:
    """Non-interpolated average precision; tied scores form one block.

    Each block's precision tp/seen is at most 1 and its weights sum exactly
    to n_pos, so the correctly rounded sum cannot exceed 1.
    """
    tp, seen, n_pos = _pr_sweep(scores, labels)
    block_tp = np.diff(tp, prepend=0.0)
    return float(math.fsum(block_tp * (tp / seen)) / n_pos)


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


def pr_curve_points(scores, labels) -> list:
    """(recall, precision) at the end of each tie block along the
    descending-score sweep, for plotting."""
    tp, seen, n_pos = _pr_sweep(scores, labels)
    return list(zip((tp / n_pos).tolist(), (tp / seen).tolist()))


def metrics_from_dicts(predictions: dict, labels: dict, ids) -> dict:
    """AUPR/AUROC over the given ids; None when the metric is undefined."""
    ids = [i for i in ids if i in labels]
    s = [predictions[i] for i in ids]
    y = [labels[i] for i in ids]
    out = {"n": len(ids)}
    try:
        out["aupr"] = aupr(s, y)
        out["auroc"] = auroc(s, y)
    except DataError:
        out["aupr"] = None
        out["auroc"] = None
    return out


# --- inductive / transductive split ---

def inductive_partition(index: MessageIndex, train: tuple, test: tuple) -> tuple:
    """A test message is transductive iff it shares a group with a training
    message; train and test are position ranges. -> sorted (inductive, transductive) ids."""
    group = index.table.group
    has_train = np.bincount(group[index.inside(train)], minlength=len(index.table)) > 0
    shared = np.zeros(len(index.ids), dtype=bool)
    shared[index.table.members[index.inside(test) & has_train[group]]] = True
    ids, flags = index.ids[slice(*test)], shared[slice(*test)].tolist()
    return (sorted(m for m, f in zip(ids, flags) if not f),
            sorted(m for m, f in zip(ids, flags) if f))


# --- connected-component coverage ---

@dataclass
class CoverageCurve:
    component_sizes: list
    all_cumulative: list
    spam_cumulative: list
    ham_cumulative: list


def component_coverage(index: MessageIndex) -> CoverageCurve:
    """Cumulative fraction of messages covered by the connected components of
    the co-membership graph, largest first and then by smallest id, split by label."""
    n = len(index.ids)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=index.ids.__getitem__)] = np.arange(n)
    # min-label propagation with pointer jumping: each root is its component's smallest id rank
    t = index.table
    root, member, starts = np.arange(n), rank[t.members], np.cumsum(t.sizes) - t.sizes
    while len(member):
        hooked = root.copy()
        np.minimum.at(hooked, root[member], np.minimum.reduceat(root[member], starts)[t.group])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, root):
            break
        root = hooked
    root = root[rank]  # by chronological position
    sizes = np.bincount(root, minlength=n)
    order = np.flatnonzero(sizes)
    order = order[np.argsort(-sizes[order], kind="stable")]

    def cumulative(of: np.ndarray) -> list:
        total = int(of.sum())
        got = np.cumsum(np.bincount(root[of], minlength=n)[order])
        return (got / total).tolist() if total else [0.0] * len(order)

    return CoverageCurve(sizes[order].tolist(), cumulative(np.ones(n, dtype=bool)),
                         cumulative(index.labels == 1), cumulative(index.labels == 0))


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
    feature_mode: str = FeatureConfig.mode
    limited_drop: str = FeatureConfig.limited_drop
    ngram_top_k: int = FeatureConfig.ngram_top_k
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    l2_grid: list | None = None          # validation-tuned when set
    epsilons: dict | float = 0.1  # shared, or per relation (0.1 for one left out)
    tune_epsilons: bool = False  # a validation pass over each relation's epsilon, from `epsilons`
    mrf_prior_center: float | str | None = "auto"  # "auto": mean of the priors; None disables
    hinge: HingeConfig = field(default_factory=HingeConfig)
    stack_mode: str = "soft"
    seed: int = 0

    @property
    def feature(self) -> FeatureConfig:
        return FeatureConfig(self.feature_mode, self.limited_drop, ngram_top_k=self.ngram_top_k)

    def required_stacks(self) -> list:
        return sorted({k for k, _ in map(parse_model_name, self.models) if k})

    def check(self) -> None:
        """Raise a `ConfigError` naming the first setting of the wrong type or out of range."""
        def per_relation(ok):  # read after `relations` has passed
            return lambda v: (isinstance(v, dict) and set(v) <= set(self.relations)
                              and all(map(ok, v.values())))

        for key, ok, accepts in (
            ("seed", is_int, "an integer"),
            ("relations", lambda v: isinstance(v, list) and all(r in RELATION_NAMES for r in v),
             f"a list of relation tags from {RELATION_NAMES}"),
            ("models", lambda v: isinstance(v, list) and v != [], "a non-empty list of roster names"),
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
            ("mrf_prior_center", lambda v: v in (None, "auto") or is_number(v) and 0 < v < 1,
             "'auto', null or a number in (0, 1)"),
            ("hinge.exponent", lambda v: is_int(v) and v in (1, 2), "1 or 2"),
            *((f"hinge.weights.{key}", _is_non_negative, "a non-negative number")
              for key in ("neg", "prior")),
            *((f"hinge.weights.{key}", per_relation(_is_non_negative),
               "an object mapping configured relations to non-negative numbers")
              for key in ("relation_c", "relation_d")),
            ("hinge.learn_steps", lambda v: is_int(v) and v >= 0, "a non-negative integer"),
            ("hinge.learning_rate", lambda v: is_number(v) and v > 0, "a positive number"),
            ("stack_mode", ("soft", "hard").__contains__, "'soft' or 'hard'"),
        ):
            value = attrgetter(key)(self)
            check_setting(ok(value), key, accepts, value)
        self.required_stacks()  # parses every roster name


def tune_epsilons(priors: dict, groups: list, labels: dict, relations: list,
                  start: dict | float = 0.1, grid=EPSILON_GRID) -> dict:
    """One coordinate-descent pass over the per-relation epsilon grid,
    maximizing validation AUPR of the joint posteriors, from the epsilons
    `start` (shared, or per relation with 0.1 for one left out).

    The graph is built once. Each relation's current value and grid run as
    one batched BP call, and scores are memoized by the per-relation epsilons,
    so a candidate scored before does not run again. A grid value must beat
    the best score so far strictly to replace it.
    """
    eps = {r: start.get(r, 0.1) if isinstance(start, dict) else start for r in relations}
    ids = sorted(set(priors) & set(labels))
    if not ids or not relations:
        return eps
    graph = build_factor_graph(priors, groups, eps)
    y = [labels[i] for i in ids]
    try:
        _check_binary(y)
    except DataError:
        return eps  # AUPR is undefined on these labels whatever the epsilons
    # a grouped message scores its marginal, any other its prior
    grouped = set(GroupTable.of(groups).members)
    position = {vid: i for i, vid in enumerate(graph.ids)}
    rows = [k for k, i in enumerate(ids) if i in grouped]
    cols = [position[ids[k]] for k in rows]
    prior = np.array([priors[i] for i in ids], dtype=float)
    memo = {}

    def scores(candidates: list) -> list:
        keys = [tuple(c[r] for r in relations) for c in candidates]
        todo = list(dict.fromkeys(k for k in keys if k not in memo))
        if todo:
            spam, _, _ = loopy_bp_batch(graph, [dict(zip(relations, k)) for k in todo])
            for k, marginals in zip(todo, spam):
                joint = prior.copy()
                joint[rows] = marginals[cols]
                memo[k] = aupr(joint, y)
        return [memo[k] for k in keys]

    for rel in relations:
        best_score, *grid_scores = scores([eps] + [{**eps, rel: e} for e in grid])
        best_eps = eps[rel]
        for e, s in zip(grid, grid_scores):
            if s > best_score:
                best_eps, best_score = e, s
        eps[rel] = best_eps
    return eps


def tune_l2(fm_train, labels, fm_val, val_labels, scale_columns, config: ClassifierConfig,
            grid: list) -> float:
    """Pick the regularization strength with the best validation AUPR."""
    best_l2, best_score = config.l2, None
    val_ids = [i for i in fm_val.row_ids if i in val_labels]
    if len({val_labels[i] for i in val_ids}) < 2:
        return config.l2
    for l2 in grid:
        model = fit_classifier(fm_train, labels, scale_columns, replace(config, l2=l2))
        preds = model.predict_proba(fm_val)
        try:
            s = aupr([preds[i] for i in val_ids], [val_labels[i] for i in val_ids])
        except DataError:
            continue
        if best_score is None or s > best_score:
            best_l2, best_score = l2, s
    return best_l2


# --- per-subset steps of the protocol ---

def ordered_dataset(messages: list) -> list:
    """The messages sorted chronologically; `DataError` if they fail validation."""
    report = validate_dataset(messages)
    if not report.ok:
        raise DataError("dataset failed validation: " + "; ".join(report.errors[:5]))
    return sort_chronologically(messages)


def graph_feature_table(config: ExperimentConfig, follows: list) -> dict:
    """Per-user follower-graph features shared by every subset's pipeline;
    empty when the feature mode drops them or there are no follows."""
    if config.feature.uses_graph() and follows:
        return compute_graph_feature_table(build_follower_graph(follows))
    return {}


def featurize_subset(ordered: list, subset: SubsetSplit, config: ExperimentConfig,
                     graph_table: dict) -> FeatureMatrix:
    """Fit the feature pipeline on the subset's training slice and transform
    the whole subset: -> the matrix of its train, validation and test rows."""
    train_msgs, val_msgs, test_msgs = (ordered[a:b] for a, b in
                                       (subset.train, subset.validation, subset.test))
    pipe = FeaturePipeline(config.feature, graph_table).fit(train_msgs)
    return pipe.transform(train_msgs + val_msgs + test_msgs, labels_of(train_msgs))


def center_mrf_priors(priors: dict, config: ExperimentConfig) -> dict:
    """Recenter priors on `config.mrf_prior_center` ("auto": their mean) for the MRF."""
    center = config.mrf_prior_center
    if center == "auto":
        center = float(np.mean(list(priors.values()))) if priors else 0.5
    return recenter_scores(priors, center) if center else priors


def train_subset_models(index: MessageIndex, subset: SubsetSplit, fm: FeatureMatrix,
                        config: ExperimentConfig) -> dict:
    """Fit every artifact the roster needs on one subset's training slice,
    tuning on its validation slice; `fm` is the subset's feature matrix."""
    train_ids = index.ids[slice(*subset.train)]
    fm_train = fm.select_rows(train_ids)
    fm_val = fm.select_rows(index.ids[slice(*subset.validation)])
    scale_columns = scalable_columns(fm.column_names)
    labels, val_labels = index.labels_in(*subset.train), index.labels_in(*subset.validation)
    clf_config = config.classifier
    if config.l2_grid:
        best = tune_l2(fm_train, labels, fm_val, val_labels,
                       scale_columns, clf_config, config.l2_grid)
        clf_config = replace(clf_config, l2=best)
    artifacts = {"independent": fit_classifier(fm_train, labels, scale_columns, clf_config)}
    stacks = config.required_stacks()
    groups_train = index.groups(subset.train) if stacks else []
    for k in stacks:
        artifacts[f"sgl{k}"] = train_stacked(
            train_ids, fm_train, labels, groups_train, K=k, relations=config.relations,
            scale_columns=scale_columns, config=clf_config, pseudo_mode=config.stack_mode)

    joints = {parse_model_name(m)[1] for m in config.models}
    has_val = subset.validation[1] > subset.validation[0]
    hinge = config.hinge
    learn_psl = "psl" in joints and hinge.learn_steps > 0 and has_val
    tune_mrf = "mrf" in joints and config.tune_epsilons and has_val
    if learn_psl or tune_mrf:
        val_groups = index.groups(subset.validation)
        val_priors = artifacts["independent"].predict_proba(fm_val)
    if "psl" in joints:
        weights = hinge.weights.copy()
        if learn_psl:
            weights, _ = learn_weights(weights, val_labels, val_groups, val_priors,
                                       steps=hinge.learn_steps,
                                       learning_rate=hinge.learning_rate, p=hinge.exponent)
        artifacts["psl_weights"] = weights
    if "mrf" in joints:
        eps = config.epsilons
        if tune_mrf:
            eps = tune_epsilons(center_mrf_priors(val_priors, config), val_groups,
                                val_labels, config.relations, start=eps)
        artifacts["epsilons"] = eps
    return artifacts


def infer_subset_models(artifacts: dict, index: MessageIndex, subset: SubsetSplit,
                        fm: FeatureMatrix, config: ExperimentConfig) -> tuple:
    """Test predictions for every roster model on one subset; `fm` is the
    subset's feature matrix. -> (predictions by model, diagnostics)

    Joint models see training messages as observed evidence: gold labels act
    as (clamped) priors in the MRF and as fixed values in the HL-MRF.
    """
    test_ids = index.ids[slice(*subset.test)]
    fm_test = fm.select_rows(test_ids)
    groups_tt = index.groups(subset.train, subset.test)
    context = {mid: float(v) for mid, v in index.labels_in(*subset.train).items()}
    diagnostics = {"bp_nonconverged": 0, "map_nonconverged": 0}

    base_preds = artifacts["independent"].predict_proba(fm_test)
    stacked_preds = {}
    for k in config.required_stacks():
        stacked_preds[k] = infer_stacked(artifacts[f"sgl{k}"], fm_test, groups_tt,
                                         context_scores=context,
                                         available_relations=config.relations)

    def joint_scores(joint: str, priors_test: dict) -> dict:
        if joint == "mrf":
            priors = dict(context)
            priors.update(center_mrf_priors(priors_test, config))
            result = infer_posteriors(priors, groups_tt, artifacts.get("epsilons", config.epsilons))
            diagnostics["bp_nonconverged"] += 0 if result.converged else 1
            return {mid: result.scores[mid] for mid in test_ids}
        scores, map_result = infer_hinge_posteriors(
            priors_test, groups_tt, artifacts.get("psl_weights", config.hinge.weights),
            p=config.hinge.exponent, observed=context)
        diagnostics["map_nonconverged"] += 0 if map_result.converged else 1
        return {mid: scores[mid] for mid in test_ids}

    preds_by_model = {}
    for name in config.models:
        stacks, joint = parse_model_name(name)
        prior_preds = base_preds if stacks is None else stacked_preds[stacks]
        if joint is None:
            preds_by_model[name] = {mid: prior_preds[mid] for mid in test_ids}
        else:
            preds_by_model[name] = joint_scores(joint, {mid: prior_preds[mid] for mid in test_ids})
    return preds_by_model, diagnostics


def sum_diagnostics(per_subset: list) -> dict:
    """Solver diagnostics of every subset, summed by key."""
    return {k: sum(d[k] for d in per_subset) for k in per_subset[0]}


# --- full protocol ---

@dataclass
class EvaluationReport:
    models: list  # dict per model
    n_messages: int
    n_subsets: int
    n_test: int
    n_inductive: int
    n_transductive: int
    coverage: dict
    diagnostics: dict
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_text(self) -> str:
        headers = ["model", "aupr_ind", "aupr_all", "auroc_ind", "auroc_all"]
        rows = []
        for entry in self.models:
            rows.append([
                entry["model"],
                _fmt(entry["inductive"]["aupr"]),
                _fmt(entry["overall"]["aupr"]),
                _fmt(entry["inductive"]["auroc"]),
                _fmt(entry["overall"]["auroc"]),
            ])
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        lines.append("")
        lines.append(f"test messages: {self.n_test} "
                     f"(inductive {self.n_inductive}, transductive {self.n_transductive})")
        return "\n".join(lines)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.4f}"


def aggregate_report(config: ExperimentConfig, index: MessageIndex, plan: SplitPlan,
                     subset_preds: list, diagnostics: dict) -> EvaluationReport:
    """Concatenate per-subset test predictions and score every roster model,
    overall and on the inductive partition."""
    coverage = component_coverage(index)
    roster = config.models
    labels = index.labels_in(0, len(index.ids))
    all_preds: dict = {name: {} for name in roster}
    per_subset_metrics: dict = {name: [] for name in roster}
    test_ids_all: list = []
    inductive_ids: list = []
    for subset, preds in zip(plan.subsets, subset_preds):
        test_ids = index.ids[slice(*subset.test)]
        ind, _ = inductive_partition(index, subset.train, subset.test)
        test_ids_all.extend(test_ids)
        inductive_ids.extend(ind)
        for name in roster:
            all_preds[name].update(preds[name])
            per_subset_metrics[name].append(metrics_from_dicts(preds[name], labels, test_ids))

    model_entries = []
    for name in roster:
        model_entries.append({
            "model": name,
            "overall": metrics_from_dicts(all_preds[name], labels, test_ids_all),
            "inductive": metrics_from_dicts(all_preds[name], labels, inductive_ids),
            "per_subset": per_subset_metrics[name],
        })
    return EvaluationReport(
        models=model_entries,
        n_messages=len(index.ids),
        n_subsets=len(subset_preds),
        n_test=len(test_ids_all),
        n_inductive=len(inductive_ids),
        n_transductive=len(test_ids_all) - len(inductive_ids),
        coverage=asdict(coverage),
        diagnostics=diagnostics,
        config={key: getattr(config, key) for key in REPORTED_SETTINGS},
    )


def evaluate_experiment(messages: list, follows: list, config: ExperimentConfig) -> EvaluationReport:
    """Run the full chronological protocol in memory and aggregate the report."""
    config.check()
    ordered = ordered_dataset(messages)
    index = build_index(ordered, config.relations)
    plan = chronological_split(ordered, config.n_subsets, config.fractions)
    graph_table = graph_feature_table(config, follows)
    subset_preds, diagnostics = [], []
    for i, subset in enumerate(plan.subsets):
        fm = featurize_subset(ordered, subset, config, graph_table)
        artifacts = train_subset_models(index, subset, fm, config)
        preds, diag = infer_subset_models(artifacts, index, subset, fm, config)
        subset_preds.append(preds)
        diagnostics.append(diag)
        log.info("subset %d/%d done", i + 1, plan.n_subsets)
    return aggregate_report(config, index, plan, subset_preds, sum_diagnostics(diagnostics))
