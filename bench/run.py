"""relspam benchmark: generate a workload's inputs, run the protocol, check it, report metrics.

    python3 bench/run.py --workload paper20k|paper20k_par|joint40k|all \\
        [--seed 42] [--seconds 30] [--trace 0|1]

Run from the repository root. Every operation runs in a child interpreter
(bench/child.py) with `src/` on its path:

- set-up generates the inputs with `relspam.cli.cmd_generate`, three times,
  and checks that every copy is byte-identical (and, at a pinned seed, that
  their sha256 matches bench/workloads.py);
- a pipeline run copies the inputs into a fresh output directory and runs
  featurize, train, infer and eval there. Runs repeat until their summed
  pipeline time reaches --seconds;
- each run's report.json must equal every other report of the same config,
  seed and source tree (paper20k and paper20k_par share one config but for
  threads, so one report), and its AUPR/AUROC must match bench/oracle.py
  within 1e-9.

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric (medians over the runs). With --trace 1 the workload is set
up once, run once untraced and once traced (bench/spans.py), and the object
holds every per-layer metric. The process exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
from workloads import PINNED_INPUTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# A run must end within 180 s: no pipeline starts once NEW_RUN_CUTOFF_S have
# passed, and every child still running at RUN_LIMIT_S is killed.
NEW_RUN_CUTOFF_S = 120.0
RUN_LIMIT_S = 170.0
INPUT_FILES = ("messages.jsonl", "follows.tsv")
# Over ten seeds these AUPRs move by at most 7% of their median. Most of the
# others move by 10-25% (the generator plants only 40 or 80 campaigns), too
# much for a bound, so they are printed and checked against the oracle but
# not reported as metrics.
QUALITY_METRICS = ("aupr_all.mrf", "aupr_ind.mrf", "aupr_all.psl")


class CheckFailed(Exception):
    pass


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "relspam").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Run:
    """One workload at one seed: its operations, their outcomes and the checks."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.reports = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._oracle_inputs = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"[{self.workload.name} seed {self.seed}] FAILED: {message}", file=sys.stderr)

    def _write_config(self, out: Path) -> Path:
        path = out.with_suffix(".config.json")
        path.write_text(json.dumps(self.workload.full_config(self.seed, str(out)), indent=2),
                        encoding="utf-8")
        return path

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _child(self, args: list) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                                  cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(RUN_LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{args[0]} still running {RUN_LIMIT_S} s into the run")
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailed(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return wall

    # --- set-up ---

    def setup(self, repeats: int, trace_path: Path | None = None) -> list:
        """Generate the inputs `repeats` times; returns each set-up's wall time."""
        inputs = self.work / "inputs"
        config = self._write_config(inputs)
        times, digests = [], []
        for _ in range(repeats):
            args = ["setup", "--config", str(config)]
            if trace_path is not None:
                args += ["--trace", str(trace_path)]
            times.append(self._child(args))
            digests.append({f: sha256_file(inputs / "data" / f) for f in INPUT_FILES})
        if any(d != digests[0] for d in digests):
            raise CheckFailed("set-up is not deterministic: input digests differ between repeats")
        pinned = PINNED_INPUTS.get((self.workload.inputs, self.seed))
        if pinned is not None and pinned != digests[0]:
            raise CheckFailed(f"input drift at seed {self.seed}: {digests[0]} != pinned {pinned}")
        return times

    # --- pipeline ---

    def pipeline(self, index: int, trace_path: Path | None = None) -> dict:
        """One featurize -> eval run in a fresh directory, checked; returns its measurements."""
        out = self.work / f"run{index}"
        shutil.copytree(self.work / "inputs" / "data", out / "data")
        config = self._write_config(out)
        result_path = out.with_suffix(".result.json")
        args = ["pipeline", "--config", str(config), "--result", str(result_path)]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        self._child(args)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["artifact_mb"] = tree_bytes(out) / 1e6
        result["report"] = json.loads((out / "report.json").read_text(encoding="utf-8"))
        result["aupr_above_one"] = oracle.aupr_above_one(result["report"])
        self._check_outputs(out)
        shutil.rmtree(out)
        return result

    def _check_outputs(self, out: Path) -> None:
        report = (out / "report.json").read_bytes()
        if self.reports and report != self.reports[0]:
            raise CheckFailed("report.json differs between runs of the same seed")
        self.reports.append(report)
        self._check_ledger(hashlib.sha256(report).hexdigest())
        plan = (out / "features" / "split_plan.json").read_text(encoding="utf-8")
        test_ids, inductive, labels = self._oracle_partition(plan)
        problems = oracle.check_report(out, test_ids, inductive, labels)
        if problems:
            raise CheckFailed("report disagrees with the oracle: " + "; ".join(problems[:5]))

    def _check_ledger(self, digest: str) -> None:
        """Every report of one config (threads aside), seed and source tree must be identical,
        across runs of this process and of earlier ones in the same checkout."""
        cfg = self.workload.full_config(self.seed, "")
        del cfg["threads"], cfg["out"]
        key = hashlib.sha256((json.dumps(cfg, sort_keys=True) +
                              source_digest(self.root)).encode()).hexdigest()
        ledger_path = self.root / ".bench_work" / "reports.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        if ledger.setdefault(key, digest) != digest:
            raise CheckFailed("report.json differs from an earlier run with the same config "
                              "and seed (threads aside)")
        tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1))
        os.replace(tmp, ledger_path)

    def _oracle_partition(self, plan_text: str):
        if self._oracle_inputs is None or self._oracle_inputs[0] != plan_text:
            from relspam.data_model import (build_groups, labels_of, read_messages,
                                            relations_from_names, sort_chronologically)
            messages = sort_chronologically(
                read_messages(self.work / "inputs" / "data" / "messages.jsonl"))
            relations = relations_from_names(self.workload.config["relations"])
            test_ids, inductive = [], []
            for s in json.loads(plan_text)["subsets"]:
                train = messages[s["train"][0]:s["train"][1]]
                test = messages[s["test"][0]:s["test"][1]]
                ids = [m.id for m in test]
                test_ids.append(ids)
                inductive.append(oracle.inductive_ids(ids, [m.id for m in train],
                                                      build_groups(train + test, relations)))
            self._oracle_inputs = (plan_text, (test_ids, inductive, labels_of(messages)))
        return self._oracle_inputs[1]


def end_to_end(run: Run, seconds: float) -> dict:
    setup_s = run.setup(SETUP_REPEATS)
    results = []
    while not results or sum(r["pipeline_s"] for r in results) < seconds:
        if results and run.elapsed() > NEW_RUN_CUTOFF_S:
            break
        results.append(run.pipeline(len(results)))
        print(f"{run.workload.name}: run {len(results) - 1} pipeline_s {results[-1]['pipeline_s']:.3f}")
    metrics = {
        "pipeline_s": (statistics.median(r["pipeline_s"] for r in results), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "artifact_mb": (statistics.median(r["artifact_mb"] for r in results), "MB"),
    }
    aupr = {}
    for entry in results[0]["report"]["models"]:
        model = entry["model"].replace("+", "-")
        aupr[f"aupr_all.{model}"] = entry["overall"]["aupr"]
        aupr[f"aupr_ind.{model}"] = entry["inductive"]["aupr"]
    print(f"{run.workload.name}: AUPR {json.dumps(aupr)}")
    metrics.update({name: (aupr[name], "ratio") for name in QUALITY_METRICS})
    return metrics


def per_layer(run: Run) -> dict:
    setup_trace = run.work / "setup.spans.json"
    pipeline_trace = run.work / "pipeline.spans.json"
    run.setup(1, trace_path=setup_trace)
    plain = run.pipeline(0)
    traced = run.pipeline(1, trace_path=pipeline_trace)
    traces = [json.loads(p.read_text(encoding="utf-8")) for p in (setup_trace, pipeline_trace)]
    layers = spans.layer_metrics(traces[0], traces[1], run.workload.threads)
    layers["evaluation.aupr_above_one"] = traced["aupr_above_one"]
    layers["trace_overhead_ratio"] = traced["pipeline_s"] / plain["pipeline_s"]
    table = spans.span_table(traces)
    by_layer = {}
    for name, row in table.items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + row["self_s"]
    print(f"{run.workload.name}: self time by layer (s) "
          + json.dumps({k: round(v, 3) for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}))
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
        print(f"{run.workload.name}: self {row['self_s']:8.3f} s  total {row['total_s']:8.3f} s  "
              f"calls {row['calls']:6d}  {name}")
    return {k: (v, spans.unit_of(k)) for k, v in layers.items()}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, name, seed)
    metrics = {}
    try:
        run.work.mkdir(parents=True, exist_ok=True)
        metrics = per_layer(run) if trace else end_to_end(run, seconds)
    except CheckFailed as exc:
        run.fail(str(exc))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value!r} {unit}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "relspam" / "__init__.py").is_file():
        print("error: run from the relspam repository root (src/relspam not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
