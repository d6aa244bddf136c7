"""The benchmark's tracing observers read facts from relspam's return values:
these tests hold that contract on a small case whose counts are known."""

import importlib
from pathlib import Path

import numpy as np

from relspam.data_model import build_groups, build_index, message_table
from relspam.hinge import HingeWeights, ground_rules, map_inference
from relspam.mrf import build_factor_graph, loopy_bp

from tables import rows_of


def test_span_observers_read_the_known_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    # user groups (a, b, c) and (d, e), and a text group (a, d): 3 groups, 7 members
    records = [{"id": mid, "user_id": user, "text": text} for mid, user, text in
               [("a", "u1", "hello"), ("b", "u1", "bye"), ("c", "u1", "x"), ("d", "u2", "hello"),
                ("e", "u2", "y")]]
    messages, relations = rows_of(records), ["user", "text"]
    groups = build_groups(messages, relations)
    for _ in range(2):
        spans._observe_groups(tracer, (messages, relations), groups)
    priors = np.array([0.9, 0.8, 0.7, 0.2, 0.4])
    groups = build_index(message_table(records), relations).table
    graph = build_factor_graph(priors, groups, 0.1)
    spans._observe_graph(tracer, (priors, groups, 0.1), graph)
    # one run stopped at its first iteration, one run to convergence
    bp = [loopy_bp(graph, max_iters=n) for n in (1, 100)]
    for result in bp:
        spans._observe_bp(tracer, (graph,), result)
    model = ground_rules(priors, groups, HingeWeights())
    spans._observe_ground(tracer, (priors, groups), model)
    hinge_map = [map_inference(model, tol=1e-9, max_iter=n) for n in (1, 5000)]
    for result in hinge_map:
        spans._observe_map(tracer, (model,), result)

    assert [(r.n_iters, r.converged) for r in bp + hinge_map] == \
        [(1, False), (bp[1].n_iters, True), (1, False), (hinge_map[1].n_iters, True)]
    assert dict(tracer.facts) == {
        "data_model.build_groups_repeats": 1,
        "data_model.groups": 2 * 3,
        "data_model.group_members": 2 * 7,
        "mrf.factors_total": 7,  # one per (group, member)
        "mrf.bp_iters_total": 1 + bp[1].n_iters,
        "mrf.bp_nonconverged": 1,
        "hinge.potentials_total": 2 * 5 + 2 * 7,  # neg and prior per message, c and d per member
        "hinge.map_iters_total": 1 + hinge_map[1].n_iters,
        "hinge.map_nonconverged": 1,
    }
