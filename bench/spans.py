"""Outside-in tracing of the relspam modules, and the per-layer metrics drawn from it.

`install()` wraps every public function of each module, and every public
method of the classes those modules define, in a span recorder. A name bound
by `from ... import` is a separate binding, so each module global that holds a
wrapped function is replaced too: `build_groups` is rebound in `data_model`,
`cli` and `evaluation`. No source file changes.

Spans are kept in memory as (id, name, start, end, parent, thread) and written
out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter

MODULES = ("cli", "data_model", "features", "linear", "stacking", "mrf", "hinge",
           "evaluation", "synth")

# Called once per message, group member or solver iteration: a span each would
# cost more than the work it times, so these run unwrapped inside their caller.
UNWRAPPED = {
    "data_model.normalize_text", "data_model.normalize_link", "data_model.message_hashtags",
    "data_model.message_mentions", "data_model.message_links", "data_model.message_from_record",
    "data_model.message_to_record", "data_model.RelationType.keys_for",
    "features.sentiment_scores", "features.extract_content_features", "features.char_ngrams",
    "features.FollowerGraph.add_node", "features.FollowerGraph.add_edge",
    "mrf.hub_id", "mrf.clamp_prior",
    "hinge.HingeWeights.c", "hinge.HingeWeights.d",
    "hinge.GroundHinge.linear_value", "hinge.GroundHinge.value",
    "hinge.GroundHingeModel.gradient", "hinge.GroundHingeModel.linear_values",
    "hinge.GroundHingeModel.potential_values",
    "evaluation.UnionFind.find", "evaluation.UnionFind.union",
}

# Counted per enclosing span instead of timed: the line search's objective
# evaluations, set against MAP iterations as a measure of wasted work.
COUNTED = {"hinge.GroundHingeModel.objective"}

STAGES = ("featurize", "train", "infer", "eval")
CLI_STAGES = tuple(f"cli.cmd_{stage}" for stage in STAGES)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []
        self.facts = Counter()
        self.facts_lock = threading.Lock()
        self.grouped_inputs = set()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = Counter()
            self._thread_counts.append(local.counts)
        return local

    def timed(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._state().stack
            parent = stack[-1][0] if stack else None
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if observe is not None:
                with tracer.facts_lock:
                    observe(tracer, args, result)
            return result
        return traced

    def counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            state = tracer._state()
            enclosing = state.stack[-1][1] if state.stack else None
            state.counts[(enclosing, name)] += 1
            return fn(*args, **kwargs)
        return counting

    def counts(self) -> Counter:
        total = Counter()
        for c in self._thread_counts:
            total.update(c)
        return total

    def dump(self, path) -> None:
        payload = {
            "main_thread": threading.main_thread().ident,
            "spans": self.spans,
            "counts": [[a, b, n] for (a, b), n in sorted(self.counts().items(), key=str)],
            "facts": dict(self.facts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# --- what each layer's return values say about the work it did ---

def _observe_fit(tracer, args, model):
    tracer.facts["linear.iters_total"] += model.n_iter
    tracer.facts["linear.nonconverged"] += not model.converged


def _observe_bp(tracer, args, result):
    tracer.facts["mrf.bp_iters_total"] += result.n_iters
    tracer.facts["mrf.bp_nonconverged"] += not result.converged


def _observe_graph(tracer, args, graph):
    tracer.facts["mrf.factors_total"] += len(graph.factors)


def _observe_ground(tracer, args, model):
    tracer.facts["hinge.potentials_total"] += len(model.potentials)


def _observe_map(tracer, args, result):
    tracer.facts["hinge.map_iters_total"] += result.n_iters
    tracer.facts["hinge.map_nonconverged"] += not result.converged


def _observe_groups(tracer, args, groups):
    messages, relations = args[0], args[1]
    key = (tuple(m.id for m in messages), tuple(getattr(r, "name", r) for r in relations))
    tracer.facts["data_model.build_groups_repeats"] += key in tracer.grouped_inputs
    tracer.grouped_inputs.add(key)
    tracer.facts["data_model.groups"] += len(groups)
    tracer.facts["data_model.group_members"] += sum(len(g.member_ids) for g in groups)


def _observe_matrix_write(tracer, args, _):
    path, fm = args[0], args[1]
    tracer.facts["features.matrix_nnz"] += fm.matrix.nnz
    tracer.facts["features.matrix_file_bytes"] += os.path.getsize(path)


OBSERVERS = {
    "linear.fit_classifier": _observe_fit,
    "mrf.loopy_bp": _observe_bp,
    "mrf.build_factor_graph": _observe_graph,
    "hinge.ground_rules": _observe_ground,
    "hinge.map_inference": _observe_map,
    "data_model.build_groups": _observe_groups,
    "features.write_feature_matrix": _observe_matrix_write,
}


def install(tracer: Tracer) -> None:
    """Wrap the public API of every relspam module."""
    modules = {name: importlib.import_module(f"relspam.{name}") for name in MODULES}
    replacement = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj) and name not in UNWRAPPED:
                replacement[obj] = tracer.timed(name, obj, OBSERVERS.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, name, obj)
    # rebind every module global that holds a wrapped function, wherever it was imported
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(mod, attr, replacement[obj])


def _wrap_methods(tracer, class_name, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{class_name}.{attr}"
        if name in UNWRAPPED:
            continue
        wrap = tracer.counted if name in COUNTED else tracer.timed
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, wrap(name, raw))


# --- analysis of a dumped trace ---

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(trace: dict) -> dict:
    """span id -> child spans. A root span on a worker thread is a child of the
    cli stage that was running on the main thread when it started."""
    main = trace["main_thread"]
    stages = [s for s in trace["spans"] if s[1] in CLI_STAGES and s[5] == main]
    children: dict = {}
    for s in trace["spans"]:
        parent = s[4]
        if parent is None and s[5] != main:
            parent = next((st[0] for st in stages if st[2] <= s[2] <= st[3]), None)
        if parent is not None:
            children.setdefault(parent, []).append(s)
    return children


def span_table(traces: list) -> dict:
    """name -> {"calls", "total_s", "self_s"} over every span of the given traces.

    Self time is a span's duration minus the part of it its children cover.
    """
    table: dict = {}
    for trace in traces:
        spans = trace["spans"]
        children = _children(trace)
        for sid, name, start, end, _, _ in spans:
            kids = [(max(k[2], start), min(k[3], end)) for k in children.get(sid, [])]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _union_length([k for k in kids if k[0] < k[1]])
    return table


def stage_work(trace: dict, threads: int) -> dict:
    """How busy the cli stages kept their threads, from the spans directly under them.

    worker_busy_ratio: those spans' summed time / (threads x stage wall time).
    span_coverage: the share of stage wall time during which one of them ran.
    """
    children = _children(trace)
    wall = busy = covered = 0.0
    for sid, name, start, end, _, _ in trace["spans"]:
        if name not in CLI_STAGES:
            continue
        top = [(s[2], s[3]) for s in children.get(sid, [])]
        wall += end - start
        busy += sum(b - a for a, b in top)
        covered += _union_length([(max(a, start), min(b, end)) for a, b in top])
    return {"cli.worker_busy_ratio": busy / (threads * wall) if wall else 0.0,
            "cli.span_coverage": covered / wall if wall else 0.0}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_iter", "_coverage")):
        return "ratio"
    return "count"


def layer_metrics(setup_trace: dict, pipeline_trace: dict, threads: int) -> dict:
    """Every per-layer metric of the benchmark from the set-up and pipeline traces."""
    traces = [setup_trace, pipeline_trace]
    table = span_table(traces)
    facts = Counter()
    counts = Counter()
    for trace in traces:
        facts.update(trace["facts"])
        counts.update({(a, b): n for a, b, n in trace["counts"]})

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    group_calls = calls("data_model.build_groups")
    map_iters = facts["hinge.map_iters_total"]
    objective_in_map = counts[("hinge.map_inference", "hinge.GroundHingeModel.objective")]
    m = {f"cli.{stage}_s": total(f"cli.cmd_{stage}") for stage in STAGES}
    m.update(stage_work(pipeline_trace, threads))
    m.update({
        "data_model.read_messages_s": total("data_model.read_messages"),
        "data_model.read_messages_calls": calls("data_model.read_messages"),
        "data_model.write_messages_s": total("data_model.write_messages"),
        "data_model.build_groups_s": total("data_model.build_groups"),
        "data_model.build_groups_calls": group_calls,
        "data_model.build_groups_repeat_ratio":
            facts["data_model.build_groups_repeats"] / group_calls if group_calls else 0.0,
        "data_model.groups": facts["data_model.groups"],
        "data_model.group_members": facts["data_model.group_members"],
        "features.fit_s": total("features.FeaturePipeline.fit"),
        "features.transform_s": total("features.FeaturePipeline.transform"),
        "features.write_matrix_s": total("features.write_feature_matrix"),
        "features.read_matrix_s": total("features.read_feature_matrix"),
        "features.read_matrix_calls": calls("features.read_feature_matrix"),
        "features.matrix_nnz": facts["features.matrix_nnz"],
        "features.matrix_file_bytes": facts["features.matrix_file_bytes"],
        "linear.fit_s": total("linear.fit_classifier"),
        "linear.fit_calls": calls("linear.fit_classifier"),
        "linear.iters_total": facts["linear.iters_total"],
        "linear.nonconverged": facts["linear.nonconverged"],
        "stacking.train_self_s": self_s("stacking.train_stacked"),
        "stacking.infer_s": total("stacking.infer_stacked"),
        "mrf.build_graph_s": total("mrf.build_factor_graph"),
        "mrf.bp_s": total("mrf.loopy_bp"),
        "mrf.bp_calls": calls("mrf.loopy_bp"),
        "mrf.bp_iters_total": facts["mrf.bp_iters_total"],
        "mrf.bp_nonconverged": facts["mrf.bp_nonconverged"],
        "mrf.factors_total": facts["mrf.factors_total"],
        "hinge.ground_s": total("hinge.ground_rules"),
        "hinge.map_s": total("hinge.map_inference"),
        "hinge.map_calls": calls("hinge.map_inference"),
        "hinge.map_iters_total": map_iters,
        "hinge.map_nonconverged": facts["hinge.map_nonconverged"],
        "hinge.potentials_total": facts["hinge.potentials_total"],
        "hinge.objective_evals_per_iter": objective_in_map / map_iters if map_iters else 0.0,
        "hinge.learn_s": total("hinge.learn_weights"),
        "evaluation.report_s": total("evaluation.aggregate_report"),
        "evaluation.inductive_partition_s": total("evaluation.inductive_partition"),
        "evaluation.coverage_s": total("evaluation.component_coverage"),
        "synth.generate_s": total("synth.generate"),
    })
    return m
