"""Batch command-line pipeline: generate -> featurize -> train -> infer -> eval.

Stages communicate only through files under the output directory, so any
stage can be rerun in isolation; outputs are byte-deterministic for a fixed
config and seed. `run-all` chains every stage and writes the final report. A
stage only reads its inputs, calls the steps of `evaluation` that
`evaluate_experiment` also runs (featurize first calls `prepare_dataset`), and
writes their results. Only `featurize` reads `messages.jsonl`, into a
`MessageTable`; it writes `features/split_plan.json`, which holds each
subset's position ranges and the settings it ran under, the
`features/index.npz` message index (relations sorted by name) and each
subset's `features.npz`, `train` each subset's `models.json` (whose format
`evaluation` owns), `infer` the predictions TSVs and
`predictions/diagnostics.json`, and `eval` the report of `aggregate_report`
as `evaluation.report_json` and `report_text` render it. Every file but the
TSVs and the report goes through `write_artifact` under a format tag and
back through `read_artifact`, so one that is missing, damaged or of another
tag fails with a `DataError` naming it and the stage to rerun, and so does a
later stage run under other featurize settings. Past featurize a message is
its position in the index; ids come back only in the TSVs. A run's settings
are one `RunConfig`, which `load_config` builds from the JSON config and
checks before any stage runs. `COMMANDS` maps each command to its stage.

`featurize`, `train` and `infer` run their subsets in parallel
(`data_model._map_pool`): a fork pool of one worker per usable CPU, up to
the number of subsets, or inline on one CPU. Each worker writes its own
subset's files and the stage gets back only what a subset returns, so the
output bytes do not depend on the worker count. `featurize` reads the
messages over such a pool too (`read_message_table`), checks the dataset
before it writes anything, and writes the index as its pool's first job,
beside the subsets. `eval` runs in the stage's own process.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .data_model import (
    ConfigError,
    DataError,
    _map_pool,
    build_index,
    check_setting,
    gc_paused,
    is_int,
    read_artifact,
    read_follows,
    read_index,
    read_message_table,
    SubsetSplit,
    write_artifact,
    write_follows,
    write_index,
    write_messages,
)
from .evaluation import (
    DIAGNOSTICS,
    ExperimentConfig,
    aggregate_report,
    featurize_subset,
    infer_subset_models,
    prepare_dataset,
    read_models,
    report_json,
    report_text,
    sum_diagnostics,
    train_subset_models,
    write_models,
)
from .features import FeatureMatrix, read_feature_matrix, write_feature_matrix
from .synth import GeneratorConfig, generate

log = logging.getLogger(__name__)

CONFIG_VERSION = 1
PLAN_FORMAT = "relspam-split-plan v2"
DIAGNOSTICS_FORMAT = "relspam-diagnostics v1"


def _only(value, says: str) -> tuple:
    """The check of a legacy key that accepts one value, the one the program runs."""
    return (lambda v: type(v) is type(value) and v == value), says


# keys older configs carry: accepted and checked, but they set nothing
LEGACY_KEYS = {
    "threads": (lambda v: is_int(v) and v >= 1, "a positive integer"),
    "classifier.method": _only("batch", "'batch', the only solver"),
    "hinge.exponent": _only(2, "2, the squared hinge"),
    "mrf_prior_center": _only("auto", "'auto', the mean prior"),
    "stack_mode": _only("soft", "'soft', the mean score"),
    "dump_pr_curves": _only(False, "false"),
}
# the settings featurize's outputs depend on, which split_plan.json records
FEATURIZE_SETTINGS = ("relations", "n_subsets", "fractions", "feature_mode", "limited_drop",
                      "ngram_top_k")


@dataclass
class RunConfig(ExperimentConfig):
    """A command-line run: the experiment, and where its data and artifacts live."""

    version: int = CONFIG_VERSION
    out: str = "out"
    messages: str | None = None  # default: <out>/data/messages.jsonl, the generate stage's output
    follows: str | None = None  # default: <out>/data/follows.tsv when present
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)  # drawn from `seed`

    def check(self) -> None:
        check_setting(is_int(self.version) and self.version == CONFIG_VERSION, "version",
                      str(CONFIG_VERSION), self.version)
        super().check()
        check_setting(isinstance(self.out, str) and self.out != "", "out", "a directory path",
                      self.out)
        for key in ("messages", "follows"):
            value = getattr(self, key)
            check_setting(value is None or isinstance(value, str) and value != "", key,
                          "null or a file path", value)
        self.generator.check()


def _merge(config, given, key: str = ""):
    """A copy of the config dataclass `config` with the JSON object `given`
    merged over it: an object merges into its section, and null leaves a
    section at its defaults. A key that is not a field fails, named."""
    if not isinstance(given, dict):
        raise ConfigError(f"config key {key!r} must be an object" if key else
                          "a config must be a JSON object")
    known = {f.name for f in fields(config)}
    changes = {}
    for name, value in given.items():
        path = f"{key}.{name}" if key else name
        if path in LEGACY_KEYS:
            ok, accepts = LEGACY_KEYS[path]
            check_setting(ok(value), path, accepts, value)
        elif name not in known:
            raise ConfigError(f"unknown config key {path!r}")
        elif not is_dataclass(getattr(config, name)):
            changes[name] = value
        elif value is not None:
            changes[name] = _merge(getattr(config, name), value, path)
    return replace(config, **changes)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The defaults, with the JSON config file at `path` and then the
    non-None `overrides` merged over them, every value checked."""
    cfg = RunConfig()
    if path:
        try:
            given = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:  # also a directory
            raise ConfigError(f"config file not found or not readable: {path} "
                              f"({exc.strerror})") from None
        except ValueError as exc:  # also a bad UTF-8 byte
            raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from None
        cfg = _merge(cfg, given)
    cfg = _merge(cfg, {k: v for k, v in overrides.items() if v is not None})
    cfg.check()
    return cfg


# --- stage file layout ---

def _out(cfg: RunConfig) -> Path:
    return Path(cfg.out)


def _subset_dir(cfg, stage_dir: str, i: int) -> Path:
    return _out(cfg) / stage_dir / f"subset_{i:02d}"


def _featurize_settings(cfg: RunConfig) -> dict:
    """The config's `FEATURIZE_SETTINGS` as JSON gives them back."""
    return json.loads(json.dumps({key: getattr(cfg, key) for key in FEATURIZE_SETTINGS}))


def _load_featurized(cfg: RunConfig) -> tuple:
    """(split plan, message index) that featurize wrote; a `DataError` naming
    the first setting it ran under that the config does not share."""
    path = _out(cfg) / "features" / "split_plan.json"
    plan, ran = read_artifact(path, PLAN_FORMAT, "featurize", lambda header, _: (
        [SubsetSplit(**{k: tuple(v) for k, v in s.items()}) for s in header["subsets"]],
        {key: header["settings"][key] for key in FEATURIZE_SETTINGS}))
    for key, value in _featurize_settings(cfg).items():
        if ran[key] != value:
            raise DataError(f"{path}: featurize ran with {key} {ran[key]!r}, the config sets "
                            f"{value!r}; rerun the featurize stage")
    return plan, read_index(_out(cfg) / "features" / "index.npz")


def _load_features(cfg, i: int, subset: SubsetSplit) -> FeatureMatrix:
    """Subset i's feature matrix, one row per message of its span in the split plan."""
    path = _subset_dir(cfg, "features", i) / "features.npz"
    fm = read_feature_matrix(path)
    expected = subset.test[1] - subset.train[0]
    if fm.shape[0] != expected:
        raise DataError(f"{path}: {fm.shape[0]} rows, but subset {i} of split_plan.json has "
                        f"{expected} messages; rerun the featurize stage")
    return fm


# --- stages ---

def cmd_generate(cfg: RunConfig) -> int:
    log.info("generate: seed %d, %s", cfg.seed, cfg.generator)
    with gc_paused():
        messages, follows = generate(cfg.generator, cfg.seed)
        data_dir = _out(cfg) / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        write_messages(data_dir / "messages.jsonl", messages)
    write_follows(data_dir / "follows.tsv", follows)
    log.info("generate: wrote %d messages, %d follows to %s", len(messages), len(follows), data_dir)
    return 0


def cmd_featurize(cfg: RunConfig) -> int:
    path = Path(cfg.messages or _out(cfg) / "data" / "messages.jsonl")
    if not path.is_file():
        raise DataError(f"no messages file {path}; run the generate stage or set 'messages'")
    follows_path = Path(cfg.follows or _out(cfg) / "data" / "follows.tsv")
    table, source_sha256 = read_message_table(path)
    # only the default follows file may be absent
    follows = read_follows(follows_path) if cfg.follows or follows_path.exists() else []
    plan, graph_table = prepare_dataset(table, follows, cfg)
    feat_dir = _out(cfg) / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    write_artifact(feat_dir / "split_plan.json", PLAN_FORMAT,
                   {"subsets": list(map(asdict, plan)), "settings": _featurize_settings(cfg)})

    def featurize(job: int) -> None:  # job 0 writes the index, job i + 1 subset i's matrix
        if job == 0:
            write_index(feat_dir / "index.npz", build_index(table, cfg.relations, source_sha256))
            return
        sub_dir = _subset_dir(cfg, "features", job - 1)
        sub_dir.mkdir(parents=True, exist_ok=True)
        write_feature_matrix(sub_dir / "features.npz",
                             featurize_subset(table, plan[job - 1], cfg, graph_table))
    _map_pool(featurize, len(plan) + 1)
    log.info("featurize: wrote %d subset matrices under %s", len(plan), feat_dir)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    plan, index = _load_featurized(cfg)

    def train(i: int) -> None:
        artifacts = train_subset_models(index, plan[i], _load_features(cfg, i, plan[i]), cfg)
        out_dir = _subset_dir(cfg, "models", i)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_models(out_dir / "models.json", artifacts, cfg)
    _map_pool(train, len(plan))
    log.info("train: wrote model artifacts for %d subsets under %s", len(plan),
             _out(cfg) / "models")
    return 0


def cmd_infer(cfg: RunConfig) -> int:
    plan, index = _load_featurized(cfg)
    pred_dir = _out(cfg) / "predictions"

    def infer(i: int) -> dict:
        subset = plan[i]
        artifacts = read_models(_subset_dir(cfg, "models", i) / "models.json", cfg)
        preds, diag = infer_subset_models(artifacts, index, subset,
                                          _load_features(cfg, i, subset), cfg)
        test_ids = index.ids[slice(*subset.test)]
        for name, scores in preds.items():
            model_dir = pred_dir / name
            model_dir.mkdir(parents=True, exist_ok=True)
            with open(model_dir / f"subset_{i:02d}.tsv", "w", encoding="utf-8") as fh:
                fh.writelines(f"{mid}\t{score!r}\n"
                              for mid, score in zip(test_ids, scores.tolist()))
        return diag
    write_artifact(pred_dir / "diagnostics.json", DIAGNOSTICS_FORMAT,
                   sum_diagnostics(_map_pool(infer, len(plan))))
    log.info("infer: wrote predictions for %d subsets under %s", len(plan), pred_dir)
    return 0


def _read_predictions(path: Path, test_ids: list) -> np.ndarray:
    """The scores of a predictions TSV in the order of `test_ids`, its
    subset's test messages. A line that is not UTF-8 or not an id and a
    finite float, an id that is not a test message or comes twice, and a test
    message without a line each raise `DataError` naming the file and the line."""
    position = {mid: i for i, mid in enumerate(test_ids)}
    scores = [None] * len(test_ids)  # None: no line yet
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}; rerun the infer stage") from None
    with fh:
        for n, line in enumerate(fh, 1):
            try:
                mid, _, value = line.decode("utf-8").rstrip("\n").partition("\t")
                score = float(value)
            except ValueError as exc:  # bad UTF-8 is a ValueError too
                raise DataError(f"{path}, line {n}: not an id and a score ({exc})") from None
            if not math.isfinite(score):
                raise DataError(f"{path}, line {n}: the score {value!r} is not finite")
            i = position.get(mid)
            if i is None:
                raise DataError(f"{path}, line {n}: {mid!r} is not a test message of this subset")
            if scores[i] is not None:
                raise DataError(f"{path}, line {n}: {mid!r} is scored twice")
            scores[i] = score
    missing = [i for i, score in enumerate(scores) if score is None]
    if missing:
        raise DataError(f"{path}: no line for test message {test_ids[missing[0]]!r} "
                        f"({len(missing)} missing)")
    return np.array(scores, dtype=float)


def _check_diagnostics(header: dict, _) -> dict:
    """The header of a diagnostics.json, if it holds exactly the counts
    `sum_diagnostics` writes, each a non-negative int."""
    if sorted(header) != sorted(DIAGNOSTICS):
        raise ValueError(f"keys {sorted(header)}, not {sorted(DIAGNOSTICS)}")
    for key, count in header.items():
        if not (is_int(count) and count >= 0):
            raise ValueError(f"{key} {count!r} is not a non-negative int")
    return header


def cmd_eval(cfg: RunConfig) -> int:
    plan, index = _load_featurized(cfg)
    pred_dir = _out(cfg) / "predictions"
    subset_preds = []
    for i, subset in enumerate(plan):
        test_ids = index.ids[slice(*subset.test)]
        subset_preds.append({
            name: _read_predictions(pred_dir / name / f"subset_{i:02d}.tsv", test_ids)
            for name in cfg.models})
    diagnostics = read_artifact(pred_dir / "diagnostics.json", DIAGNOSTICS_FORMAT, "infer",
                                _check_diagnostics)
    report = aggregate_report(cfg, index, plan, subset_preds, diagnostics)
    out = _out(cfg)
    (out / "report.json").write_text(report_json(report), encoding="utf-8")
    (out / "report.txt").write_text(report_text(report) + "\n", encoding="utf-8")
    print(report_text(report))
    return 0


def cmd_run_all(cfg: RunConfig) -> int:
    for stage in (cmd_generate, cmd_featurize, cmd_train, cmd_infer, cmd_eval):
        rc = stage(cfg)
        if rc != 0:
            return rc
    return 0


# each command's stage and help, in the order `--help` lists them
COMMANDS = {
    "generate": (cmd_generate, "write a synthetic dataset"),
    "featurize": (cmd_featurize, "write the message index and per-subset feature matrices"),
    "train": (cmd_train, "train per-subset models"),
    "infer": (cmd_infer, "write per-model test predictions"),
    "eval": (cmd_eval, "score predictions and write the report"),
    "run-all": (cmd_run_all, "run every stage in order"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relspam",
        description="Spam classification with relational refinement: "
                    "stacked learning and joint inference over message groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--verbose", "-v", action="store_true", help="info-level logging")
        p.add_argument("--config", help="JSON config file (merged over defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--feature-mode", choices=["full", "limited"], dest="feature_mode")
        p.add_argument("--models", help="comma-separated roster, e.g. independent,sgl1,mrf")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    overrides = {"seed": args.seed, "feature_mode": args.feature_mode, "out": args.out}
    if args.models:
        overrides["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
