"""Metrics and the chronological multi-subset evaluation protocol.

Per subset: fit features and the independent classifier on the training
slice, tune on validation, predict the test slice with every roster model
(stacked, joint, and combined); test predictions are concatenated across
subsets and scored overall and on the inductive / transductive partition.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data_model import (
    ConfigError,
    DataError,
    build_groups,
    chronological_split,
    labels_of,
    relations_from_names,
    sort_chronologically,
)
from .features import FeatureConfig, FeaturePipeline, build_follower_graph, compute_graph_feature_table
from .hinge import HingeWeights, infer_hinge_posteriors, learn_weights
from .linear import ClassifierConfig, fit_classifier, recenter_scores
from .mrf import build_factor_graph, infer_posteriors, loopy_bp_batch
from .stacking import infer_stacked, train_stacked

log = logging.getLogger(__name__)

EPSILON_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)


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

def inductive_partition(test_ids, train_ids, groups) -> tuple:
    """A test message is transductive iff it shares a group with a training
    message; the partition is exhaustive and disjoint."""
    test_set = set(test_ids)
    train_set = set(train_ids)
    transductive = set()
    for g in groups:
        members = set(g.member_ids)
        if members & train_set:
            transductive |= members & test_set
    inductive = sorted(test_set - transductive)
    return inductive, sorted(transductive)


# --- connected-component coverage ---

class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass
class CoverageCurve:
    component_sizes: list
    all_cumulative: list
    spam_cumulative: list
    ham_cumulative: list


def component_coverage(messages: list, groups: list) -> CoverageCurve:
    """Cumulative fraction of messages covered by the largest-first connected
    components of the co-membership graph, split by label."""
    ids = [m.id for m in messages]
    uf = UnionFind(ids)
    for g in groups:
        first = g.member_ids[0]
        for other in g.member_ids[1:]:
            uf.union(first, other)
    comps: dict = {}
    for mid in ids:
        comps.setdefault(uf.find(mid), []).append(mid)
    components = sorted(comps.values(), key=lambda c: (-len(c), min(c)))

    labels = labels_of(messages)
    n_all = len(ids)
    n_spam = sum(1 for v in labels.values() if v == 1)
    n_ham = sum(1 for v in labels.values() if v == 0)
    sizes, cum_all, cum_spam, cum_ham = [], [], [], []
    got_all = got_spam = got_ham = 0
    for comp in components:
        sizes.append(len(comp))
        got_all += len(comp)
        got_spam += sum(1 for mid in comp if labels.get(mid) == 1)
        got_ham += sum(1 for mid in comp if labels.get(mid) == 0)
        cum_all.append(got_all / n_all)
        cum_spam.append(got_spam / n_spam if n_spam else 0.0)
        cum_ham.append(got_ham / n_ham if n_ham else 0.0)
    return CoverageCurve(sizes, cum_all, cum_spam, cum_ham)


# --- experiment configuration and roster ---

KNOWN_MODELS = ("independent", "sgl1", "sgl2", "mrf", "psl",
                "sgl1+mrf", "sgl1+psl", "sgl2+mrf", "sgl2+psl")


def parse_model_name(name: str) -> tuple:
    """-> (stack depth or None, joint method or None)."""
    if name == "independent":
        return None, None
    parts = name.split("+")
    stacks = None
    joint = None
    for part in parts:
        if part.startswith("sgl") and part[3:].isdigit():
            stacks = int(part[3:])
        elif part in ("mrf", "psl"):
            joint = part
        else:
            raise ConfigError(f"unknown roster model: {name!r}")
    if stacks is None and joint is None:
        raise ConfigError(f"unknown roster model: {name!r}")
    return stacks, joint


@dataclass
class ExperimentConfig:
    relations: list = field(default_factory=lambda: ["user", "text", "link"])
    models: list = field(default_factory=lambda: ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"])
    n_subsets: int = 10
    fractions: tuple = (0.7, 0.05, 0.25)
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    l2_grid: list | None = None          # validation-tuned when set
    epsilons: dict | float = 0.1         # per-relation or shared
    tune_epsilons: bool = False
    mrf_prior_center: float | str | None = "auto"  # "auto": mean of the priors; None disables
    hinge_weights: HingeWeights = field(default_factory=HingeWeights)
    hinge_exponent: int = 2
    psl_learn_steps: int = 0
    psl_learning_rate: float = 0.05
    stack_mode: str = "soft"
    seed: int = 0

    def valid_models(self) -> list:
        out = []
        for name in self.models:
            try:
                parse_model_name(name)
            except ConfigError:
                log.warning("skipping unavailable roster model %r", name)
                continue
            out.append(name)
        if not out:
            raise ConfigError("no usable roster models configured")
        return out

    def required_stacks(self) -> list:
        ks = {parse_model_name(m)[0] for m in self.valid_models()}
        return sorted(k for k in ks if k)


def tune_epsilons(priors: dict, groups: list, labels: dict, relations: list,
                  grid=EPSILON_GRID, default: float = 0.1) -> dict:
    """One coordinate-descent pass over the per-relation epsilon grid,
    maximizing validation AUPR of the joint posteriors.

    The graph is built once. Each relation's current value and grid run as
    one batched BP call, and scores are memoized by the per-relation epsilons,
    so a candidate scored before does not run again. A grid value must beat
    the best score so far strictly to replace it.
    """
    eps = {r: default for r in relations}
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
    grouped = {mid for g in groups for mid in g.member_ids}
    position = graph.var_index()
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
        cfg = ClassifierConfig(l2=l2, max_iter=config.max_iter, tol=config.tol,
                               seed=config.seed, method=config.method)
        model = fit_classifier(fm_train, labels, scale_columns, cfg)
        preds = model.predict_proba(fm_val)
        try:
            s = aupr([preds[i] for i in val_ids], [val_labels[i] for i in val_ids])
        except DataError:
            continue
        if best_score is None or s > best_score:
            best_l2, best_score = l2, s
    return best_l2


# --- per-subset training and inference ---

def train_subset_models(train_msgs: list, val_msgs: list, fm_train, fm_val,
                        scale_columns: list, config: ExperimentConfig,
                        groups_train: list) -> dict:
    """Fit every artifact the roster needs on one subset's training slice."""
    labels = labels_of(train_msgs)
    clf_config = config.classifier
    if config.l2_grid:
        best = tune_l2(fm_train, labels, fm_val, labels_of(val_msgs),
                       scale_columns, clf_config, config.l2_grid)
        clf_config = ClassifierConfig(l2=best, max_iter=clf_config.max_iter,
                                      tol=clf_config.tol, seed=clf_config.seed,
                                      method=clf_config.method)
    artifacts = {"independent": fit_classifier(fm_train, labels, scale_columns, clf_config)}
    for k in config.required_stacks():
        artifacts[f"sgl{k}"] = train_stacked(
            train_msgs, fm_train, labels, groups_train, K=k, relations=config.relations,
            scale_columns=scale_columns, config=clf_config, pseudo_mode=config.stack_mode)

    needs_psl = any(parse_model_name(m)[1] == "psl" for m in config.valid_models())
    if needs_psl:
        weights = config.hinge_weights.copy()
        if config.psl_learn_steps > 0 and val_msgs:
            val_groups = build_groups(val_msgs, relations_from_names(config.relations))
            val_priors = artifacts["independent"].predict_proba(fm_val)
            weights, _ = learn_weights(weights, val_msgs, val_groups, val_priors,
                                       steps=config.psl_learn_steps,
                                       learning_rate=config.psl_learning_rate,
                                       p=config.hinge_exponent)
        artifacts["psl_weights"] = weights

    needs_mrf = any(parse_model_name(m)[1] == "mrf" for m in config.valid_models())
    if needs_mrf:
        eps = config.epsilons
        if config.tune_epsilons and val_msgs:
            val_groups = build_groups(val_msgs, relations_from_names(config.relations))
            val_priors = artifacts["independent"].predict_proba(fm_val)
            center = config.mrf_prior_center
            if center == "auto":
                center = float(np.mean(list(val_priors.values()))) if val_priors else 0.5
            if center:
                val_priors = recenter_scores(val_priors, center)
            default = eps if isinstance(eps, float) else 0.1
            eps = tune_epsilons(val_priors, val_groups, labels_of(val_msgs),
                                config.relations, default=default)
        artifacts["epsilons"] = eps
    return artifacts


def infer_subset_models(artifacts: dict, train_msgs: list, test_msgs: list, fm_test,
                        groups_tt: list, config: ExperimentConfig) -> tuple:
    """Test predictions for every roster model on one subset.

    Joint models see training messages as observed evidence: gold labels act
    as (clamped) priors in the MRF and as fixed values in the HL-MRF.
    """
    train_labels = labels_of(train_msgs)
    context = {mid: float(v) for mid, v in train_labels.items()}
    test_ids = [m.id for m in test_msgs]
    diagnostics = {"bp_nonconverged": 0, "map_nonconverged": 0}

    base_preds = artifacts["independent"].predict_proba(fm_test)
    stacked_preds = {}
    for k in config.required_stacks():
        stacked_preds[k] = infer_stacked(artifacts[f"sgl{k}"], fm_test, groups_tt,
                                         context_scores=context,
                                         available_relations=config.relations)

    def joint_scores(joint: str, priors_test: dict) -> dict:
        if joint == "mrf":
            center = config.mrf_prior_center
            if center == "auto":
                center = float(np.mean(list(priors_test.values()))) if priors_test else 0.5
            priors = dict(context)
            priors.update(recenter_scores(priors_test, center) if center else priors_test)
            result = infer_posteriors(priors, groups_tt, artifacts.get("epsilons", config.epsilons))
            diagnostics["bp_nonconverged"] += 0 if result.converged else 1
            return {mid: result.scores[mid] for mid in test_ids}
        scores, map_result = infer_hinge_posteriors(
            priors_test, groups_tt, artifacts.get("psl_weights", config.hinge_weights),
            p=config.hinge_exponent, observed=context)
        diagnostics["map_nonconverged"] += 0 if map_result.converged else 1
        return {mid: scores[mid] for mid in test_ids}

    preds_by_model = {}
    for name in config.valid_models():
        stacks, joint = parse_model_name(name)
        prior_preds = base_preds if stacks is None else stacked_preds[stacks]
        if joint is None:
            preds_by_model[name] = {mid: prior_preds[mid] for mid in test_ids}
        else:
            preds_by_model[name] = joint_scores(joint, {mid: prior_preds[mid] for mid in test_ids})
    return preds_by_model, diagnostics


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


def config_snapshot(config: ExperimentConfig) -> dict:
    return {
        "relations": config.relations,
        "models": config.valid_models(),
        "n_subsets": config.n_subsets,
        "fractions": list(config.fractions),
        "feature_mode": config.feature.mode,
        "limited_drop": config.feature.limited_drop,
        "seed": config.seed,
    }


def aggregate_report(roster: list, subset_preds: list, subset_test_ids: list,
                     subset_inductive_ids: list, labels: dict, coverage: CoverageCurve,
                     diagnostics: dict, snapshot: dict, n_messages: int) -> EvaluationReport:
    """Concatenate per-subset test predictions and score every roster model."""
    all_preds: dict = {name: {} for name in roster}
    per_subset_metrics: dict = {name: [] for name in roster}
    test_ids_all: list = []
    inductive_ids: list = []
    for preds, test_ids, ind_ids in zip(subset_preds, subset_test_ids, subset_inductive_ids):
        test_ids_all.extend(test_ids)
        inductive_ids.extend(ind_ids)
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
        n_messages=n_messages,
        n_subsets=len(subset_preds),
        n_test=len(test_ids_all),
        n_inductive=len(inductive_ids),
        n_transductive=len(test_ids_all) - len(inductive_ids),
        coverage=asdict(coverage),
        diagnostics=diagnostics,
        config=snapshot,
    )


def evaluate_experiment(messages: list, follows: list, config: ExperimentConfig) -> EvaluationReport:
    """Run the full chronological protocol in memory and aggregate the report."""
    roster = config.valid_models()
    ordered = sort_chronologically(messages)
    plan = chronological_split(ordered, config.n_subsets, config.fractions)
    relations = relations_from_names(config.relations)
    graph_table = None
    if config.feature.uses_graph() and follows:
        graph_table = compute_graph_feature_table(build_follower_graph(follows))

    subset_preds, subset_test_ids, subset_inductive_ids = [], [], []
    diagnostics = {"bp_nonconverged": 0, "map_nonconverged": 0}
    labels = labels_of(ordered)

    for i, subset in enumerate(plan.subsets):
        train_msgs = ordered[subset.train[0]:subset.train[1]]
        val_msgs = ordered[subset.validation[0]:subset.validation[1]]
        test_msgs = ordered[subset.test[0]:subset.test[1]]
        subset_msgs = ordered[subset.train[0]:subset.test[1]]

        pipe = FeaturePipeline(config.feature)
        if graph_table is not None:
            pipe.graph_table = graph_table
        pipe.fit(train_msgs, follows=None)
        fm = pipe.transform(subset_msgs, labels_of(train_msgs))
        fm_train = fm.select_rows([m.id for m in train_msgs])
        fm_val = fm.select_rows([m.id for m in val_msgs])
        fm_test = fm.select_rows([m.id for m in test_msgs])

        groups_train = build_groups(train_msgs, relations)
        groups_tt = build_groups(train_msgs + test_msgs, relations)

        artifacts = train_subset_models(train_msgs, val_msgs, fm_train, fm_val,
                                        pipe.scalable_columns(), config, groups_train)
        preds, diag = infer_subset_models(artifacts, train_msgs, test_msgs, fm_test,
                                          groups_tt, config)
        for key in diagnostics:
            diagnostics[key] += diag[key]

        test_ids = [m.id for m in test_msgs]
        ind, _ = inductive_partition(test_ids, [m.id for m in train_msgs], groups_tt)
        subset_preds.append(preds)
        subset_test_ids.append(test_ids)
        subset_inductive_ids.append(ind)
        log.info("subset %d/%d done (%d train / %d val / %d test)",
                 i + 1, plan.n_subsets, len(train_msgs), len(val_msgs), len(test_msgs))

    coverage = component_coverage(ordered, build_groups(ordered, relations))
    return aggregate_report(roster, subset_preds, subset_test_ids, subset_inductive_ids,
                            labels, coverage, diagnostics, config_snapshot(config),
                            len(ordered))
