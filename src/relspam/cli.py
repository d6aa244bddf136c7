"""Batch command-line pipeline: generate -> featurize -> train -> infer -> eval.

Stages communicate only through files under the output directory, so any
stage can be rerun in isolation; outputs are versioned and byte-deterministic
for a fixed config and seed. `run-all` chains every stage and writes the
final report. The protocol's work is done by the per-subset steps of
`evaluation` that `evaluate_experiment` also runs; a stage only reads its
inputs, calls those steps, and writes their results. Only `featurize` reads
`messages.jsonl`; `train`, `infer` and `eval` read the `features/index.npz`
message index it writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .data_model import (
    ConfigError,
    DataError,
    MessageIndex,
    build_index,
    read_follows,
    read_index,
    read_messages,
    relations_from_names,
    chronological_split,
    SplitPlan,
    write_follows,
    write_index,
    write_messages,
)
from .evaluation import (
    ExperimentConfig,
    KNOWN_MODELS,
    aggregate_report,
    featurize_subset,
    graph_feature_table,
    infer_subset_models,
    ordered_dataset,
    pr_curve_points,
    sum_diagnostics,
    train_subset_models,
)
from .features import FeatureConfig, read_feature_matrix, write_feature_matrix
from .hinge import HingeWeights
from .linear import ClassifierConfig, LinearModel
from .stacking import StackedModel
from .synth import GeneratorConfig, generate

log = logging.getLogger(__name__)

CONFIG_VERSION = 1

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "out": "out",
    "messages": None,        # defaults to <out>/data/messages.jsonl (the generate stage output)
    "follows": None,         # defaults to <out>/data/follows.tsv when present
    "relations": ["user", "text", "link"],
    "models": ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"],
    "n_subsets": 10,
    "fractions": [0.7, 0.05, 0.25],
    "feature_mode": "full",
    "limited_drop": "ngrams",
    "ngram_top_k": 10000,
    "classifier": {"l2": 1.0, "max_iter": 300, "tol": 1e-6},
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
        "text_reuse_prob": 0.9,
        "link_reuse_prob": 0.8,
        "follower_density": 4.0,
        "feature_noise": 0.45,
    },
}


def validate_config(cfg: dict) -> None:
    """Schema check before any stage does work. Unknown keys fail; older
    configs carry `threads` and `classifier.method`, which are known."""
    known = {"": {*DEFAULT_CONFIG, "threads"}, "classifier": {*DEFAULT_CONFIG["classifier"], "method"},
             "hinge": set(DEFAULT_CONFIG["hinge"]),
             "generator": {f.name for f in fields(GeneratorConfig)} - {"seed"}}
    for section, keys in known.items():
        given = cfg[section] if section else cfg
        if not isinstance(given, dict):
            raise ConfigError(f"config key {section!r} must be an object")
        unknown = sorted(set(given) - keys)
        if unknown:
            raise ConfigError(f"unknown config key {'.'.join(filter(None, (section, unknown[0])))!r}")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {cfg.get('version')!r}")
    if not isinstance(cfg.get("models"), list) or not cfg["models"]:
        raise ConfigError("models must be a non-empty list")
    for name in cfg["models"]:
        if name not in KNOWN_MODELS:
            log.warning("roster model %r is not one of %s; it will be skipped", name, KNOWN_MODELS)
    fr = cfg.get("fractions")
    if not isinstance(fr, (list, tuple)) or len(fr) != 3 or abs(sum(fr) - 1.0) > 1e-9 or min(fr) < 0:
        raise ConfigError(f"fractions must be three non-negative numbers summing to 1, got {fr!r}")
    if not isinstance(cfg.get("n_subsets"), int) or cfg["n_subsets"] < 1:
        raise ConfigError("n_subsets must be a positive integer")
    if cfg.get("feature_mode") not in ("full", "limited"):
        raise ConfigError("feature_mode must be 'full' or 'limited'")
    if cfg.get("limited_drop") not in ("ngrams", "graph"):
        raise ConfigError("limited_drop must be 'ngrams' or 'graph'")
    for rel in cfg.get("relations", []):
        relations_from_names([rel])  # raises on unknown tags
    eps = cfg.get("epsilons")
    values = eps.values() if isinstance(eps, dict) else [eps]
    for e in values:
        if not (0.0 < float(e) < 0.5):
            raise ConfigError(f"epsilons must lie in (0, 0.5), got {e}")
    if not isinstance(cfg.get("seed"), int):
        raise ConfigError("seed must be an integer")
    method = cfg["classifier"].get("method", "batch")
    if method != "batch":
        raise ConfigError(f"classifier.method must be 'batch', the only solver, got {method!r}")


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        user_cfg = json.loads(p.read_text(encoding="utf-8"))
        for key, value in user_cfg.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    validate_config(cfg)
    return cfg


def experiment_config(cfg: dict) -> ExperimentConfig:
    clf = cfg["classifier"]
    hinge_cfg = cfg["hinge"]
    weights = HingeWeights.from_dict(hinge_cfg["weights"]) if hinge_cfg.get("weights") else HingeWeights()
    return ExperimentConfig(
        relations=list(cfg["relations"]),
        models=list(cfg["models"]),
        n_subsets=cfg["n_subsets"],
        fractions=tuple(cfg["fractions"]),
        feature=FeatureConfig(mode=cfg["feature_mode"], limited_drop=cfg["limited_drop"],
                              ngram_top_k=cfg["ngram_top_k"]),
        classifier=ClassifierConfig(l2=clf["l2"], max_iter=clf["max_iter"], tol=clf["tol"]),
        l2_grid=cfg["l2_grid"],
        epsilons=cfg["epsilons"],
        tune_epsilons=cfg["tune_epsilons"],
        mrf_prior_center=cfg["mrf_prior_center"],
        hinge_weights=weights,
        hinge_exponent=hinge_cfg["exponent"],
        psl_learn_steps=hinge_cfg["learn_steps"],
        psl_learning_rate=hinge_cfg["learning_rate"],
        stack_mode=cfg["stack_mode"],
        seed=cfg["seed"],
    )


# --- stage file layout ---

def _out(cfg) -> Path:
    return Path(cfg["out"])


def _messages_path(cfg) -> Path:
    return Path(cfg["messages"]) if cfg.get("messages") else _out(cfg) / "data" / "messages.jsonl"


def _follows_path(cfg) -> Path:
    return Path(cfg["follows"]) if cfg.get("follows") else _out(cfg) / "data" / "follows.tsv"


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise DataError(f"missing input artifact: {path} (run the '{produced_by}' stage first)")
    return path


def _load_index(cfg, exp: ExperimentConfig) -> MessageIndex:
    index = read_index(_require(_out(cfg) / "features" / "index.npz", "featurize"))
    if index.relations != list(exp.relations):
        raise DataError(f"the message index groups by relations {index.relations}, the config "
                        f"by {exp.relations}; rerun the featurize stage")
    return index


def _subset_dir(cfg, stage_dir: str, i: int) -> Path:
    return _out(cfg) / stage_dir / f"subset_{i:02d}"


def _load_plan(cfg) -> SplitPlan:
    path = _require(_out(cfg) / "features" / "split_plan.json", "featurize")
    return SplitPlan.from_json(path.read_text(encoding="utf-8"))


def _load_features(cfg, i: int):
    return read_feature_matrix(_require(_subset_dir(cfg, "features", i) / "features.npz", "featurize"))


# --- stages ---

def cmd_generate(cfg: dict) -> int:
    gen = GeneratorConfig(seed=cfg["seed"], **cfg["generator"])
    log.info("generate: %s", gen)
    messages, follows = generate(gen)
    data_dir = _out(cfg) / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    write_messages(data_dir / "messages.jsonl", messages)
    write_follows(data_dir / "follows.tsv", follows)
    log.info("generate: wrote %d messages, %d follows to %s", len(messages), len(follows), data_dir)
    return 0


def cmd_featurize(cfg: dict) -> int:
    path = _require(_messages_path(cfg), "generate")
    messages = ordered_dataset(read_messages(path))
    follows_path = _follows_path(cfg)
    follows = read_follows(follows_path) if follows_path.exists() else []
    exp = experiment_config(cfg)
    plan = chronological_split(messages, exp.n_subsets, exp.fractions)
    feat_dir = _out(cfg) / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    (feat_dir / "split_plan.json").write_text(plan.to_json(), encoding="utf-8")
    # built before any subset is transformed: its transient groups add nothing to peak memory
    write_index(feat_dir / "index.npz", build_index(
        messages, exp.relations, hashlib.sha256(path.read_bytes()).hexdigest()))
    graph_table = graph_feature_table(exp, follows)
    (feat_dir / "graph_table.json").write_text(
        json.dumps(graph_table, sort_keys=True), encoding="utf-8")
    for i, subset in enumerate(plan.subsets):
        pipe, fm = featurize_subset(messages, subset, exp, graph_table)
        sub_dir = _subset_dir(cfg, "features", i)
        sub_dir.mkdir(parents=True, exist_ok=True)
        (sub_dir / "pipeline.json").write_text(pipe.to_json(), encoding="utf-8")
        write_feature_matrix(sub_dir / "features.npz", fm)
        # not held while the next subset is transformed, which sets the stage's peak memory
        del pipe, fm
    log.info("featurize: wrote %d subset matrices under %s", plan.n_subsets, feat_dir)
    return 0


def cmd_train(cfg: dict) -> int:
    exp = experiment_config(cfg)
    plan = _load_plan(cfg)
    index = _load_index(cfg, exp)
    for i, subset in enumerate(plan.subsets):
        artifacts = train_subset_models(index, subset, _load_features(cfg, i), exp)
        out_dir = _subset_dir(cfg, "models", i)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "independent.json").write_text(artifacts["independent"].to_json(), encoding="utf-8")
        for k in exp.required_stacks():
            (out_dir / f"sgl{k}.json").write_text(artifacts[f"sgl{k}"].to_json(), encoding="utf-8")
        if "psl_weights" in artifacts:
            payload = {
                "weights": artifacts["psl_weights"].to_dict(),
                "validation": {"subset": i, "range": list(subset.validation),
                               "n_messages": subset.validation[1] - subset.validation[0]},
            }
            (out_dir / "psl_weights.json").write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8")
        if "epsilons" in artifacts:
            (out_dir / "epsilons.json").write_text(
                json.dumps(artifacts["epsilons"], sort_keys=True), encoding="utf-8")
    log.info("train: wrote model artifacts for %d subsets under %s", plan.n_subsets,
             _out(cfg) / "models")
    return 0


def _load_artifacts(cfg, exp: ExperimentConfig, i: int) -> dict:
    out_dir = _subset_dir(cfg, "models", i)
    artifacts = {"independent": LinearModel.from_json(
        _require(out_dir / "independent.json", "train").read_text(encoding="utf-8"))}
    for k in exp.required_stacks():
        artifacts[f"sgl{k}"] = StackedModel.from_json(
            _require(out_dir / f"sgl{k}.json", "train").read_text(encoding="utf-8"))
    psl_path = out_dir / "psl_weights.json"
    if psl_path.exists():
        payload = json.loads(psl_path.read_text(encoding="utf-8"))
        artifacts["psl_weights"] = HingeWeights.from_dict(payload["weights"])
    eps_path = out_dir / "epsilons.json"
    if eps_path.exists():
        artifacts["epsilons"] = json.loads(eps_path.read_text(encoding="utf-8"))
    return artifacts


def cmd_infer(cfg: dict) -> int:
    exp = experiment_config(cfg)
    plan = _load_plan(cfg)
    index = _load_index(cfg, exp)
    pred_dir = _out(cfg) / "predictions"
    diagnostics = []
    for i, subset in enumerate(plan.subsets):
        fm = _load_features(cfg, i)
        preds, diag = infer_subset_models(_load_artifacts(cfg, exp, i), index, subset, fm, exp)
        for name, scores in preds.items():
            model_dir = pred_dir / name
            model_dir.mkdir(parents=True, exist_ok=True)
            with open(model_dir / f"subset_{i:02d}.tsv", "w", encoding="utf-8") as fh:
                for mid in sorted(scores):
                    fh.write(f"{mid}\t{scores[mid]!r}\n")
        diagnostics.append(diag)
    (pred_dir / "diagnostics.json").write_text(
        json.dumps(sum_diagnostics(diagnostics), sort_keys=True), encoding="utf-8")
    log.info("infer: wrote predictions for %d subsets under %s", plan.n_subsets, pred_dir)
    return 0


def _read_predictions(path: Path) -> dict:
    scores = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        mid, value = line.split("\t")
        scores[mid] = float(value)
    return scores


def cmd_eval(cfg: dict) -> int:
    exp = experiment_config(cfg)
    plan = _load_plan(cfg)
    index = _load_index(cfg, exp)
    roster = exp.valid_models()
    pred_dir = _out(cfg) / "predictions"
    subset_preds = [
        {name: _read_predictions(_require(pred_dir / name / f"subset_{i:02d}.tsv", "infer"))
         for name in roster}
        for i in range(plan.n_subsets)
    ]
    diag_path = pred_dir / "diagnostics.json"
    diagnostics = json.loads(diag_path.read_text(encoding="utf-8")) if diag_path.exists() else {}
    report = aggregate_report(exp, index, plan, subset_preds, diagnostics)
    out = _out(cfg)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    if cfg.get("dump_pr_curves"):
        labels = index.labels_in(0, len(index.ids))
        curves = {}
        for name in roster:
            merged = {mid: score for preds in subset_preds
                      for mid, score in preds[name].items() if mid in labels}
            try:
                curves[name] = pr_curve_points(list(merged.values()), [labels[m] for m in merged])
            except DataError:
                curves[name] = []
        (out / "pr_curves.json").write_text(json.dumps(curves, sort_keys=True), encoding="utf-8")
    print(report.to_text())
    return 0


def cmd_run_all(cfg: dict) -> int:
    for stage in (cmd_generate, cmd_featurize, cmd_train, cmd_infer, cmd_eval):
        rc = stage(cfg)
        if rc != 0:
            return rc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relspam",
        description="Spam classification with relational refinement: "
                    "stacked learning and joint inference over message groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("generate", "write a synthetic dataset"),
        ("featurize", "fit feature pipelines and write per-subset matrices"),
        ("train", "train per-subset models"),
        ("infer", "write per-model test predictions"),
        ("eval", "score predictions and write the report"),
        ("run-all", "run every stage in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--verbose", "-v", action="store_true", help="info-level logging")
        p.add_argument("--config", help="JSON config file (merged over defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--feature-mode", choices=["full", "limited"], dest="feature_mode")
        p.add_argument("--stacks", type=int,
                       help="stack depth for the default roster (ignored with --models)")
        p.add_argument("--models", help="comma-separated roster, e.g. independent,sgl1,mrf")
        p.add_argument("--out", help="output directory")
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "run-all": cmd_run_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {
        "seed": args.seed,
        "feature_mode": args.feature_mode,
        "out": args.out,
    }
    if args.models:
        overrides["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    elif args.stacks is not None:
        k = args.stacks
        overrides["models"] = (["independent", "mrf", "psl"] if k == 0 else
                               ["independent", f"sgl{k}", "mrf", "psl", f"sgl{k}+mrf"])
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
