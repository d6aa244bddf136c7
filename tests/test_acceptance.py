"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured margin. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

import numpy as np

from relspam.data_model import (
    build_index,
    chronological_split,
    message_table,
    sort_chronologically,
)
from relspam.evaluation import ExperimentConfig, aupr, auroc, evaluate_experiment
from relspam.features import (
    GRAPH_COLUMNS,
    compute_graph_feature_table,
    extract_content_features,
    extract_user_features_sequential,
    feature_matrix,
    follower_graph,
    pagerank,
)
from relspam.hinge import GroundHingeModel, HingeWeights, ground_rules, map_inference
from relspam.linear import ClassifierConfig, fit_classifier
from relspam.mrf import FactorGraph, build_factor_graph, loopy_bp
from relspam.stacking import infer_stacked, train_stacked
from relspam.synth import GeneratorConfig, generate

from tables import (
    dense_coefficients,
    exact_marginals,
    gradient_at,
    hinge_terms,
    hub_table,
    objective_at,
    rows_of,
)


def report(criterion, ok, detail):
    line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def random_tree(rng):
    n = rng.randint(2, 15)
    priors = [rng.uniform(0.05, 0.95) for _ in range(n)]
    h0 = np.array([np.log(p) - np.log(1.0 - p) for p in priors])
    factors, epsilons = [], []
    for i in range(1, n):
        factors.append((rng.randrange(i), i))
        epsilons.append(rng.uniform(0.01, 0.49))
    return FactorGraph(np.arange(n), h0, np.array(factors, dtype=np.int64), np.array(epsilons))


def test_criterion_01_bp_tree_exactness():
    rng = random.Random(101)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        graph = random_tree(rng)
        bp = loopy_bp(graph, max_iters=500, tol=1e-10)
        worst = max(worst, float(np.abs(bp.marginals - exact_marginals(graph)).max()))
    elapsed = time.time() - start
    report(1, worst < 1e-6 and elapsed < 10.0,
           f"100 random trees, max |BP - exact| = {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_02_posterior_push():
    posteriors = {}
    exact_gap = 0.0
    for n in (2, 5, 8):
        graph = build_factor_graph(np.full(n, 0.85), hub_table(("user", "u", range(n))),
                                   {"user": 0.1})
        bp = loopy_bp(graph, max_iters=1000, tol=1e-12)
        exact = exact_marginals(graph)
        posteriors[n] = bp.marginals[0]
        exact_gap = max(exact_gap, abs(bp.marginals[0] - exact[0]))
    increasing = posteriors[2] < posteriors[5] < posteriors[8]
    beyond = all(v > 0.85 for v in posteriors.values())
    report(2, increasing and beyond and exact_gap < 1e-6,
           f"posteriors {posteriors[2]:.4f} < {posteriors[5]:.4f} < {posteriors[8]:.4f}, "
           f"all > 0.85, |BP - exact| <= {exact_gap:.2e}")


def test_criterion_03_psl_saturation():
    def solve(n):
        model = ground_rules(np.full(n, 0.9), hub_table(("user", "u", range(n))), HingeWeights())
        return model, map_inference(model, tol=1e-15, max_iter=50000)

    model4, r4 = solve(4)
    d_rows = (model4.template_id >= 2) & (model4.template_id % 2 == 1)  # ids 3, 5, ...
    d_active = max(model4.linear_values(r4.x)[d_rows])
    _, r3 = solve(3)
    drift = max(abs(r3.x[i] - r4.x[i]) for i in range(3))
    report(3, d_active <= 1e-6 and drift <= 1e-6,
           f"rule-(d) distance to satisfaction {d_active:.2e}, "
           f"score drift from extra satisfied member {drift:.2e}")


def _random_hinge_model(rng, n_vars):
    # rows (coefficients, const, weight, template id) over templates neg, prior and c of "user"
    rows = []
    for j in range(n_vars):
        rows.append((((j, 1.0),), 0.0, rng.uniform(0.1, 1.0), 0))
        rows.append((((j, -1.0),), rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0), 1))
    for _ in range(rng.randrange(1, 4)):
        if n_vars > 1:
            a, b = rng.sample(range(n_vars), k=2)
            rows.append((((a, 1.0), (b, -1.0)), rng.uniform(-0.3, 0.3), rng.uniform(0.1, 2.0), 2))
    coeffs, const, weight, template_id = zip(*rows)
    cols, coef = hinge_terms(coeffs)
    return GroundHingeModel(messages=np.arange(n_vars), cols=cols, coef=coef,
                            const=np.array(const), weight=np.array(weight),
                            template_id=np.array(template_id), init=np.full(n_vars, 0.5))


def _batch_objective(model, X):
    # dense, so independent of the sparse products the model's objective uses
    A = dense_coefficients(model)
    return model.weight @ np.maximum(0.0, A @ X.T + model.const[:, None]) ** 2


def _grid_oracle(model, step=0.01, refinements=3):
    n = model.n_vars
    lo, hi = np.zeros(n), np.ones(n)
    best = None
    for _ in range(refinements):
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(n)]
        points = np.array(list(itertools.product(*axes)))
        values = np.concatenate([
            _batch_objective(model, np.clip(chunk, 0.0, 1.0))
            for chunk in np.array_split(points, max(1, len(points) // 200000))
        ])
        best = np.clip(points[int(np.argmin(values))], 0.0, 1.0)
        lo, hi = np.maximum(best - step, 0.0), np.minimum(best + step, 1.0)
        step /= 10.0
    return best


def test_criterion_04_hinge_map_correctness():
    rng = random.Random(404)
    worst_map = 0.0
    for _ in range(50):
        model = _random_hinge_model(rng, rng.randint(1, 3))
        result = map_inference(model, tol=1e-13, max_iter=30000)
        oracle = _grid_oracle(model)
        worst_map = max(worst_map, float(np.max(np.abs(result.x - oracle))))

    np_rng = np.random.default_rng(404)
    h = 1e-5
    worst_grad = 0.0
    checked = 0
    while checked < 100:
        model = _random_hinge_model(rng, rng.randint(1, 4))
        x = np_rng.uniform(0.05, 0.95, size=model.n_vars)
        analytic = gradient_at(model, x)
        fd = np.zeros_like(x)
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = h
            fd[j] = (objective_at(model, x + e) - objective_at(model, x - e)) / (2 * h)
        scale = max(1.0, float(np.abs(analytic).max()))
        worst_grad = max(worst_grad, float(np.abs(analytic - fd).max()) / scale)
        checked += 1
    report(4, worst_map < 1e-3 and worst_grad < 1e-4,
           f"50 instances: max |MAP - grid| = {worst_map:.2e}; "
           f"100 points: max relative gradient error = {worst_grad:.2e}")


def test_criterion_05_hub_linearity():
    priors = np.full(100, 0.6)
    g = hub_table(("link", "l", range(100)))
    mrf_graph = build_factor_graph(priors, g, 0.1)
    hinge_model = ground_rules(priors, g, HingeWeights())
    relational = [t for t in hinge_model.template_id if t >= 2]  # c and d
    pairwise_edges = sum(1 for _ in itertools.combinations(range(100), 2))
    report(5, len(mrf_graph.factors) == 100 and len(relational) == 200 and pairwise_edges == 4950,
           f"hub: {len(mrf_graph.factors)} factors / {len(relational)} hinges; "
           f"pairwise reference: {pairwise_edges} edges")


def _ap_oracle(scores, labels):
    n_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        pred = [i for i, s in enumerate(scores) if s >= t]
        tp = sum(labels[i] for i in pred)
        ap += (tp / len(pred)) * (tp / n_pos - prev_recall)
        prev_recall = tp / n_pos
    return ap


def _auroc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_06_metric_correctness():
    rng = random.Random(606)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(6, 50)
        scores = [rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, rng.random()]) for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        labels[0], labels[1] = 0, 1
        worst = max(worst, abs(aupr(scores, labels) - _ap_oracle(scores, labels)))
        worst = max(worst, abs(auroc(scores, labels) - _auroc_oracle(scores, labels)))
    perfect_ap = aupr([0.9, 0.8, 0.1], [1, 1, 0])
    perfect_roc = auroc([0.9, 0.8, 0.1], [1, 1, 0])
    report(6, worst < 1e-12 and perfect_ap == 1.0 and perfect_roc == 1.0,
           f"20 random sets each: max |metric - oracle| = {worst:.2e}; perfect ranking = 1.0 exactly")


def test_criterion_07_temporal_causality():
    messages, _ = generate(GeneratorConfig(n_messages=2000, n_users=100, n_campaigns=10), 77)
    ordered, table = sort_chronologically(rows_of(messages)), message_table(messages)
    labels = np.array([-1 if m.label is None or i >= 1000 else m.label
                       for i, m in enumerate(ordered)])
    full = extract_user_features_sequential(table, labels, extract_content_features(table))
    rng = random.Random(7)
    causal = True
    for _ in range(50):
        cut = rng.randint(1, len(ordered))
        prefix_table = table.rows(0, cut)
        prefix = extract_user_features_sequential(prefix_table, labels[:cut],
                                                  extract_content_features(prefix_table))
        causal = causal and np.array_equal(prefix, full[:cut])
    plan = chronological_split(ordered, 10, (0.7, 0.05, 0.25))
    leakage_free = True
    for s in plan:
        train = ordered[s.train[0]:s.train[1]]
        test = ordered[s.test[0]:s.test[1]]
        if train and test:
            leakage_free = leakage_free and max(m.timestamp for m in train) <= min(
                m.timestamp for m in test)
    report(7, causal and leakage_free,
           "50 random prefixes feature-identical; all splits satisfy max(train ts) <= min(test ts)")


def _dense_pagerank(nodes, edges, damping=0.85):
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((n, n))
    for a, b in edges:
        if a != b:
            A[idx[b], idx[a]] = 1.0
    col = A.sum(axis=0)
    P = np.where(col > 0, A / np.maximum(col, 1.0), 1.0 / n)
    G = damping * P + (1.0 - damping) / n
    r = np.full(n, 1.0 / n)
    for _ in range(20000):
        r_next = G @ r
        if np.abs(r_next - r).sum() < 1e-15:
            return {v: r_next[idx[v]] for v in nodes}
        r = r_next
    return {v: r[idx[v]] for v in nodes}


def _undirected(edges):
    adj = {}
    for a, b in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def _brute_triangles(adj):
    counts = dict.fromkeys(adj, 0)
    for a, b, c in itertools.combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def _brute_cores(adj):
    core = dict.fromkeys(adj, 0)
    for k in range(len(adj) + 1):
        alive = set(adj)
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        for v in alive:
            core[v] = k
    return core


def test_criterion_08_graph_feature_oracles():
    rng = random.Random(808)
    worst_pr = 0.0
    exact_structural = True
    for _ in range(20):
        nodes = [f"n{i}" for i in range(30)]
        edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(70)]
        users, A = follower_graph(edges)
        if not users:
            continue
        scores, _ = pagerank(A, tol=1e-13, max_iter=5000)
        expected = _dense_pagerank(users, edges)
        worst_pr = max(worst_pr, max(abs(s - expected[v]) for v, s in zip(users, scores)))
        table = compute_graph_feature_table(edges)
        adj = _undirected(edges)
        for name, oracle in (("triangle_count", _brute_triangles), ("k_core", _brute_cores)):
            j = GRAPH_COLUMNS.index(name)
            exact_structural = exact_structural and oracle(adj) == {
                v: row[j] for v, row in table.items()}
    report(8, worst_pr < 1e-8 and exact_structural,
           f"20 random 30-node graphs: max pagerank error {worst_pr:.2e}; "
           f"triangles and cores exactly equal brute force")


def test_criterion_09_qualitative_relational_lift():
    start = time.time()
    messages, follows = generate(GeneratorConfig(
        n_messages=20000, spam_prevalence=0.05, n_campaigns=40), 42)
    config = ExperimentConfig(
        relations=["user", "text", "link"],
        models=["independent", "sgl1", "mrf", "psl", "sgl1+mrf"],
        n_subsets=10,
        fractions=(0.7, 0.05, 0.25),
        feature_mode="limited",
        limited_drop="ngrams",
        classifier=ClassifierConfig(l2=1.0, max_iter=300),
    )
    result = evaluate_experiment(messages, follows, config)
    elapsed = time.time() - start
    scores = {e["model"]: e["overall"]["aupr"] for e in result["models"]}
    lifted = all(scores[m] >= scores["independent"] + 0.05
                 for m in ("sgl1", "mrf", "psl", "sgl1+mrf"))
    combined = scores["sgl1+mrf"] >= max(scores["sgl1"], scores["mrf"]) - 0.01
    detail = ", ".join(f"{m}={scores[m]:.3f}" for m in
                       ("independent", "sgl1", "mrf", "psl", "sgl1+mrf"))
    report(9, lifted and combined and elapsed < 300,
           f"{detail}; runtime {elapsed:.0f}s")


def test_criterion_10_degenerate_stack_identity():
    messages, follows = generate(GeneratorConfig(n_messages=1500, n_users=80, n_campaigns=8,
                                                 spam_prevalence=0.08), 10)
    ordered, table = sort_chronologically(rows_of(messages)), message_table(messages)
    train, test = ordered[:1000], ordered[1000:]
    index = build_index(table, ["user", "text", "link"])
    labels = np.where(np.arange(len(ordered)) < 1000, index.labels, -1)
    fm = feature_matrix(table, len(train), labels, compute_graph_feature_table(follows), None)
    fm_train, fm_test = fm.rows(0, 1000), fm.rows(1000, len(ordered))
    cfg = ClassifierConfig(l2=1.0, max_iter=300)
    stacked = train_stacked(np.arange(1000), fm_train, index.labels, index.groups((0, 1000)), K=0,
                            relations=["user", "text", "link"], config=cfg)
    independent = fit_classifier(fm_train, index.labels[:1000], cfg)
    context = np.full(len(ordered), np.nan)
    context[:1000] = index.labels[:1000]
    got = infer_stacked(stacked, fm_test, np.arange(1000, len(ordered)), index.table, context)
    want = independent.predict_proba(fm_test)
    identical = got.tolist() == want.tolist()
    report(10, identical, f"K=0 predictions exactly equal the independent model "
                          f"on {len(test)} test messages")


def test_criterion_11_run_all_determinism(tmp_path):
    from relspam.cli import main
    cfg = {
        "generator": {"n_messages": 1500, "n_users": 80, "n_campaigns": 8,
                      "spam_prevalence": 0.08},
        "n_subsets": 3,
        "feature_mode": "limited",
        "models": ["independent", "sgl1", "mrf", "psl", "sgl1+mrf"],
        "classifier": {"l2": 1.0, "max_iter": 150, "tol": 1e-6, "method": "batch"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["run-all", "--config", str(cfg_path), "--out", str(out_a), "--seed", "21"])
    rc_b = main(["run-all", "--config", str(cfg_path), "--out", str(out_b), "--seed", "21"])
    identical = ((out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
                 and (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes())
    report(11, rc_a == 0 and rc_b == 0 and identical,
           "two run-all invocations produced byte-identical reports")
