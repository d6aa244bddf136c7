import itertools
import json
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relspam.data_model import DataError, build_index, message_table
from relspam.hinge import (
    GroundHingeModel,
    HingeConfig,
    HingeWeights,
    ground_rules,
    infer_hinge_posteriors,
    learn_weights,
    map_inference,
)

from tables import gradient_at, hinge_terms, hub_table, objective_at, over


def one_group(n, relation="user"):
    return hub_table((relation, "u", range(n)))


def make_model(hinges, n_vars, init=None, messages=None):
    """A model from `hinge` rows, each row's coefficients kept in the given order."""
    cols, coef = hinge_terms([h[0] for h in hinges])
    return GroundHingeModel(
        messages=np.arange(n_vars) if messages is None else messages,
        cols=cols,
        coef=coef,
        const=np.array([h[1] for h in hinges], dtype=float),
        weight=np.array([h[2] for h in hinges], dtype=float),
        template_id=np.array([h[3] for h in hinges], dtype=np.int64),
        init=np.full(n_vars, 0.5) if init is None else np.asarray(init, dtype=float),
    )


def hinge(coeffs, const, weight, template=0):
    """One potential weight * max(0, const + sum of c * x[j] over coeffs)^2, as a
    row grounded from template id `template`."""
    return tuple((int(j), float(c)) for j, c in coeffs), float(const), float(weight), template


def rows_of(model) -> list:
    """The model's potentials read back as `hinge` rows."""
    cols, coef = model.cols.tolist(), model.coef.tolist()
    return [hinge(zip(cols[i][:1 + (cols[i][1] != cols[i][0])], coef[i]),
                  model.const[i], model.weight[i], int(model.template_id[i]))
            for i in model.potentials]


def linear_value(h, x) -> float:
    coeffs, const, _, _ = h
    return const + sum(c * x[j] for j, c in coeffs)


def template_kind(template_id: int) -> str:
    """neg, prior, then c and d of each relation in turn."""
    return ("neg", "prior", "c", "d")[template_id if template_id < 2 else 2 + template_id % 2]


def template_rows(model, kinds) -> np.ndarray:
    """Mask of the potentials grounded from a template of one of these kinds."""
    return np.array([template_kind(t) in kinds for t in model.template_id], dtype=bool)


class TestGrounding:
    def test_potential_counts(self):
        model = ground_rules(np.array([0.9, 0.8, 0.7]), one_group(3), HingeWeights())
        assert model.n_vars == 4  # 3 messages + 1 hub
        assert len(model.potentials) == 12  # 3a + 3b + 3c + 3d

    def test_counts_scale_with_group_size(self):
        model = ground_rules(np.full(100, 0.6), one_group(100, "link"), HingeWeights())
        assert template_rows(model, ("c", "d")).sum() == 200
        assert len(model.potentials) == 2 * 100 + 200

    def test_prior_rule_arithmetic(self):
        model = ground_rules(np.full(2, 0.9), one_group(2), HingeWeights())
        x = np.full(model.n_vars, 0.6)
        # l = prior - s = 0.3; squared hinge = 0.09
        assert model.potential_values(x)[template_rows(model, ("prior",))][0] == \
            pytest.approx(0.09, abs=1e-12)

    def test_inactive_hinge_is_zero(self):
        model = make_model([hinge([(0, 1.0), (1, -1.0)], 0.0, 1.0)], 2)  # l = spamRel - spam_e
        x = np.array([0.2, 0.7])
        assert model.potential_values(x)[0] == 0.0

    def test_missing_prior_rejected(self):
        with pytest.raises(DataError, match="position 1"):
            ground_rules(np.array([0.5, np.nan]), one_group(2), HingeWeights())

    def test_observed_members_become_constants(self):
        model = ground_rules(np.array([0.9, 0.8]), one_group(2), HingeWeights(),
                             observed=over(2, {0: 1.0}))
        assert model.messages.tolist() == [1]
        assert model.n_vars == 2  # message 1 and the hub
        # observed member contributes only relational hinges
        assert template_rows(model, ("neg", "prior")).sum() == 2

    def test_every_variable_touches_a_potential(self):
        groups = hub_table(("user", "u", [0, 1]), ("text", "t", [2, 3, 4, 5]))
        model = ground_rules(np.full(6, 0.5), groups, HingeWeights())
        touched = set(model.cols[model.coef != 0].tolist())
        assert touched == set(range(model.n_vars))


def batch_objective(model, X):
    """Objective at many points at once, straight from the hinge definition."""
    n_pot = len(model.potentials)
    A = np.zeros((n_pot, model.n_vars))
    const = np.zeros(n_pot)
    w = np.zeros(n_pot)
    for i, (coeffs, c0, weight, _) in enumerate(rows_of(model)):
        for j, c in coeffs:
            A[i, j] += c
        const[i] = c0
        w[i] = weight
    active = np.maximum(0.0, A @ X.T + const[:, None])
    return w @ active ** 2


def grid_search_oracle(model, step=0.01, refinements=3):
    """Exhaustive grid search, refined around the best point; derivative-free."""
    n = model.n_vars
    lo = np.zeros(n)
    hi = np.ones(n)
    best = None
    for level in range(refinements):
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(n)]
        points = np.array(list(itertools.product(*axes)))
        values = np.concatenate([
            batch_objective(model, np.clip(chunk, 0.0, 1.0))
            for chunk in np.array_split(points, max(1, len(points) // 200000))
        ])
        best = np.clip(points[int(np.argmin(values))], 0.0, 1.0)
        lo = np.maximum(best - step, 0.0)
        hi = np.minimum(best + step, 1.0)
        step /= 10.0
    return best


def random_hinge_model(rng, n_vars):
    """Random instance with per-variable anchors so the optimum is unique."""
    hinges = []
    for j in range(n_vars):
        hinges.append(hinge([(j, 1.0)], 0.0, rng.uniform(0.1, 1.0)))
        hinges.append(hinge([(j, -1.0)], rng.uniform(0.1, 0.9), rng.uniform(0.1, 1.0)))
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.sample(range(n_vars), k=min(2, n_vars)) if n_vars > 1 else (0, 0)
        if a == b:
            continue
        hinges.append(hinge([(a, 1.0), (b, -1.0)], rng.uniform(-0.3, 0.3),
                            rng.uniform(0.1, 2.0)))
    return make_model(hinges, n_vars)


def reference_hinges(priors, groups, weights, observed=None):
    """The rule templates grounded one `hinge` row at a time, in ground_rules'
    row order, from dicts and (relation, members) groups."""
    observed = observed or {}
    relations = sorted({relation for relation, _ in groups})
    grouped = sorted({mid for _, members in groups for mid in members})
    free = [mid for mid in grouped if mid not in observed]
    index = {mid: j for j, mid in enumerate(free)}
    hinges = []
    for mid in free:
        pr = min(max(priors[mid], 0.0), 1.0)
        hinges.append(hinge(((index[mid], 1.0),), 0.0, weights.neg, 0))
        hinges.append(hinge(((index[mid], -1.0),), pr, weights.prior, 1))
    for k, (relation, members) in enumerate(groups):
        h = len(free) + k
        c_id = 2 + 2 * relations.index(relation)
        for mid in sorted(members):
            if mid in observed:
                v = float(observed[mid])
                c, d = (((h, -1.0),), v), (((h, 1.0),), -v)
            else:
                c = (((index[mid], 1.0), (h, -1.0)), 0.0)
                d = (((h, 1.0), (index[mid], -1.0)), 0.0)
            hinges.append(hinge(*c, weights.relation_c.get(relation, 1.0), c_id))
            hinges.append(hinge(*d, weights.relation_d.get(relation, 1.0), c_id + 1))
    return hinges


def hinge_sums(hinges, x):
    """Objective and gradient summed hinge by hinge."""
    f = 0.0
    grad = np.zeros_like(x)
    for h in hinges:
        coeffs, _, weight, _ = h
        active = max(0.0, linear_value(h, x))
        f += weight * active ** 2
        slope = weight * (2.0 * active)
        for j, c in coeffs:
            grad[j] += slope * c
    return f, grad


@st.composite
def grounding_inputs(draw):
    """(priors, groups as (relation, members) pairs, weights, observed, seed)
    with priors and observed values as position -> value dicts."""
    n = draw(st.integers(2, 9))
    groups = []
    for relation in ("user", "text"):
        for key in ("k0", "k1", "k2")[:draw(st.integers(0, 3))]:
            members = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            groups.append((relation, members))
    value = st.floats(-0.5, 1.5, allow_nan=False)
    observed = {mid: draw(st.sampled_from([0.0, 1.0]))
                for mid in draw(st.lists(st.integers(0, n - 1), unique=True))}
    priors = {mid: draw(value) for mid in range(n) if mid not in observed or draw(st.booleans())}
    weights = HingeWeights(neg=draw(st.floats(0, 2)), prior=draw(st.floats(0, 2)),
                           relation_c={"user": draw(st.floats(0, 2))},
                           relation_d={"text": draw(st.floats(0, 2))})
    return priors, groups, weights, observed, draw(st.integers(0, 99))


def array_inputs(priors: dict, groups: list, observed: dict) -> tuple:
    """The priors, table and observed values of `grounding_inputs` in array form."""
    n = 1 + max([*priors, *observed])
    return over(n, priors), hub_table(*((r, str(k), m) for k, (r, m) in enumerate(groups))), \
        over(n, observed)


@settings(max_examples=60, deadline=None)
@given(grounding_inputs())
def test_array_grounding_matches_per_hinge_reference(inputs):
    priors, groups, weights, observed, seed = inputs
    arrays = array_inputs(priors, groups, observed)
    model = ground_rules(arrays[0], arrays[1], weights, observed=arrays[2])
    ref = reference_hinges(priors, groups, weights, observed=observed)
    ref_model = make_model(ref, model.n_vars, model.init, model.messages)

    free = model.messages.tolist()
    assert free == sorted({m for _, members in groups for m in members} - set(observed))
    assert model.n_vars == len(free) + len(groups)
    assert len(model.potentials) == 2 * len(free) + 2 * sum(len(m) for _, m in groups)
    assert rows_of(model) == ref

    hub_means = [np.mean([observed.get(m, priors.get(m)) for m in sorted(members)])
                 for _, members in groups]
    expected_init = [min(max(priors[m], 0.0), 1.0) for m in free] + hub_means
    assert np.allclose(model.init, np.clip(expected_init, 0.0, 1.0), rtol=0, atol=1e-12)

    rng = np.random.default_rng(seed)
    X = rng.random((5, model.n_vars))
    np.testing.assert_allclose([objective_at(model, x) for x in X], batch_objective(ref_model, X),
                               rtol=1e-12, atol=1e-12)
    other = HingeWeights(neg=0.3, prior=1.7, relation_c={"text": 0.0}, relation_d={"user": 2.5})
    regrounded = ground_rules(arrays[0], arrays[1], other, observed=arrays[2])
    for x in X:
        f, grad = hinge_sums(ref, x)
        assert objective_at(model, x) == pytest.approx(f, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(gradient_at(model, x), grad, rtol=1e-12, atol=1e-12)
        reweighted = replace(model, weight=other.vector(arrays[1].relations)[model.template_id])
        assert objective_at(reweighted, x) == objective_at(regrounded, x)


def jacobi_diagonal(model):
    """2 * sum_k w_k * A_kj^2 per variable, from the potentials one by one."""
    diag = np.zeros(model.n_vars)
    for coeffs, _, weight, _ in rows_of(model):
        for j, c in coeffs:
            diag[j] += 2.0 * weight * c * c
    return diag


@settings(max_examples=60, deadline=None)
@given(grounding_inputs())
def test_map_ends_at_a_stationary_point_of_the_box(inputs):
    priors, groups, weights, observed, _ = inputs
    arrays = array_inputs(priors, groups, observed)
    model = ground_rules(arrays[0], arrays[1], weights, observed=arrays[2])
    result = map_inference(model)
    x = result.x
    assert result.converged
    assert ((x >= 0.0) & (x <= 1.0)).all()
    # the projected gradient: zero at, and only at, a minimizer of the convex objective
    assert np.max(np.abs(x - np.clip(x - gradient_at(model, x), 0.0, 1.0)), initial=0.0) <= 1e-8
    assert result.objective == objective_at(model, x)


class TestMapInference:
    def test_balanced_prior_pulls(self):
        # one message, equal weights on the zero-pull and the prior-pull of 0.8:
        # minimize w*s^2 + w*(0.8-s)^2 -> s = 0.4
        w = HingeWeights(neg=1.0, prior=1.0, relation_c={"user": 0.0}, relation_d={"user": 0.0})
        model = ground_rules(np.full(2, 0.8), one_group(2), w)
        result = map_inference(model, tol=1e-14, max_iter=20000)
        assert result.x[0] == pytest.approx(0.4, abs=1e-4)

    def test_zero_prior_weight_collapses_to_zero(self):
        w = HingeWeights(prior=0.0)
        scores, result = infer_hinge_posteriors(np.array([0.9, 0.7, 0.6]), one_group(2), w)
        assert scores[0] == pytest.approx(0.0, abs=1e-4)
        assert scores[1] == pytest.approx(0.0, abs=1e-4)
        assert scores[2] == 0.6  # ungrouped: its prior

    def test_output_stays_in_box(self):
        rng = random.Random(3)
        for _ in range(10):
            model = random_hinge_model(rng, rng.randint(1, 4))
            result = map_inference(model, tol=1e-10)
            assert (result.x >= 0).all() and (result.x <= 1).all()

    def test_matches_grid_search_oracle(self):
        rng = random.Random(19)
        for _ in range(15):
            model = random_hinge_model(rng, rng.randint(1, 3))
            result = map_inference(model, tol=1e-13, max_iter=30000)
            oracle = grid_search_oracle(model)
            assert np.max(np.abs(result.x - oracle)) < 1e-3

    def test_beats_random_feasible_points(self):
        rng = random.Random(8)
        np_rng = np.random.default_rng(8)
        model = random_hinge_model(rng, 3)
        result = map_inference(model, tol=1e-13, max_iter=30000)
        samples = np_rng.random((1000000, 3))
        floor = min(batch_objective(model, chunk).min() for chunk in np.array_split(samples, 10))
        assert result.objective <= floor + 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(4)
        np_rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(20):
            model = random_hinge_model(rng, rng.randint(1, 4))
            for _ in range(5):
                x = np_rng.uniform(0.05, 0.95, size=model.n_vars)
                analytic = gradient_at(model, x)
                fd = np.zeros_like(x)
                for j in range(len(x)):
                    e = np.zeros_like(x)
                    e[j] = h
                    fd[j] = (objective_at(model, x + e) - objective_at(model, x - e)) / (2 * h)
                scale = max(1.0, np.abs(analytic).max())
                assert np.abs(analytic - fd).max() / scale < 1e-4

    def test_objective_convex_along_segments(self):
        rng = random.Random(12)
        np_rng = np.random.default_rng(12)
        model = random_hinge_model(rng, 3)
        for _ in range(50):
            a = np_rng.random(3)
            b = np_rng.random(3)
            mid = objective_at(model, (a + b) / 2)
            assert mid <= (objective_at(model, a) + objective_at(model, b)) / 2 + 1e-12

    def test_saturation_extra_satisfied_member(self):
        # symmetric group: every member sits at the same optimum as the hub, so all
        # relational hinges have zero distance to satisfaction; adding one more
        # identical member must not move anyone
        def solve(n):
            model = ground_rules(np.full(n, 0.9), one_group(n), HingeWeights())
            return map_inference(model, tol=1e-15, max_iter=50000)

        r3 = solve(3)
        r4 = solve(4)
        model4 = ground_rules(np.full(4, 0.9), one_group(4), HingeWeights())
        d_values = model4.linear_values(r4.x)[template_rows(model4, ("d",))]
        assert max(d_values) <= 1e-6  # rule-(d) hinges inactive
        for i in range(3):
            assert abs(r3.x[i] - r4.x[i]) < 1e-6


    def test_large_observed_hub_with_zero_weight_converges(self):
        # hubs holding hundreds of observed members next to a few free ones, with
        # the neg template weighted 0 (as weight learning can leave it): a hub's
        # curvature is hundreds of times a message's, the shape on which unscaled
        # steps stop at max_iter
        rng = random.Random(5)
        # positions 0-399 observed, 400-405 free
        observed = over(406, {i: float(rng.random() < 0.3) for i in range(400)})
        priors = over(406, {400 + i: rng.uniform(0.2, 0.95) for i in range(6)})
        groups = hub_table(("user", "u", [*range(400), 400, 401, 402]),
                           ("text", "t", [*range(150), 403, 404, 405]),
                           ("link", "l", [400, 403, 405]))
        w = HingeWeights(neg=0.0, relation_d={"text": 0.4})
        model = ground_rules(priors, groups, w, observed=observed)
        result = map_inference(model, tol=1e-12)
        assert result.converged and result.n_iters <= 30

        diag = jacobi_diagonal(model)
        scaled = np.divide(gradient_at(model, result.x), diag, out=np.zeros(model.n_vars),
                           where=diag > 0)
        assert np.max(np.abs(result.x - np.clip(result.x - scaled, 0.0, 1.0))) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_no_worse_than_grid_search_oracle(self, seed, n_vars):
        model = random_hinge_model(random.Random(seed), n_vars)
        result = map_inference(model, tol=1e-13, max_iter=30000)
        assert result.objective <= objective_at(model, grid_search_oracle(model)) + 1e-6


def two_slices():
    """The index of four messages over the configured relations user, text
    and link, and two slices of it: positions 0-1 share a user and a link
    and hold no text group, positions 2-3 share a user and a text and hold
    no link group."""
    messages = [dict(id="m0", user_id="u1", text="a", timestamp=0, links=["http://x.io"], label=1),
                dict(id="m1", user_id="u1", text="b", timestamp=1, links=["http://x.io"], label=0),
                dict(id="m2", user_id="u2", text="c", timestamp=2, label=1),
                dict(id="m3", user_id="u2", text="c", timestamp=3, label=0)]
    index = build_index(message_table(messages), ["user", "text", "link"])
    return index, index.groups((0, 2)), index.groups((2, 4))


def test_every_slice_names_the_configured_relations_under_one_template_id():
    index, first, second = two_slices()
    assert index.table.relations == first.relations == second.relations == \
        ["link", "text", "user"]
    assert [first.relations[k] for k in first.group_relation] == ["link", "user"]
    assert [second.relations[k] for k in second.group_relation] == ["text", "user"]
    # the c and d rows of a relation carry one template id in every slice
    ids = {}
    for groups in (first, second):
        model = ground_rules(np.full(4, 0.5), groups, HingeWeights())
        relational = model.template_id[model.template_id >= 2]
        names = [groups.relations[k] for k in groups.relation]
        for name, c, d in zip(names, relational[0::2], relational[1::2]):
            assert ids.setdefault(name, (c, d)) == (c, d), name
    assert ids == {"link": (2, 3), "text": (4, 5), "user": (6, 7)}


def test_learned_weights_name_a_relation_without_a_group_at_its_start_weight():
    index, first, _ = two_slices()
    init = HingeWeights(relation_c={"user": 0.5}, relation_d={"text": 2.0})
    out, _ = learn_weights(HingeConfig(init, learn_steps=2), index.labels, first, np.full(4, 0.5))
    assert set(out.relation_c) == set(out.relation_d) == {"link", "text", "user"}
    # the slice holds no text group: text keeps its start weights, 1.0 where the start has none
    assert (out.relation_c["text"], out.relation_d["text"]) == (1.0, 2.0)


class TestLearnWeights:
    def make_validation(self, n=12):
        """Labels, groups (messages by user i % 4) and priors of n messages,
        the first half spam."""
        labels = np.array([1 if i < n // 2 else 0 for i in range(n)], dtype=np.int8)
        groups = hub_table(*(("user", f"u{j}", range(j, n, 4)) for j in range(4)))
        return labels, groups, np.where(labels == 1, 0.9, 0.1)

    def test_zero_steps_returns_init(self):
        labels, groups, priors = self.make_validation()
        init = HingeWeights(neg=1.5, prior=0.5)
        out, trace = learn_weights(HingeConfig(init, learn_steps=0), labels, groups, priors)
        assert out.neg == 1.5 and out.prior == 0.5
        assert trace == []

    def test_no_labels_warns_and_returns_init(self, caplog):
        unlabeled = np.full(2, -1, dtype=np.int8)
        with caplog.at_level("WARNING"):
            out, trace = learn_weights(HingeConfig(learn_steps=3), unlabeled, one_group(2),
                                       np.full(2, 0.5))
        assert out.neg == 1.0
        assert trace == []
        assert "no labeled" in caplog.text

    def test_prior_weight_grows_when_priors_match_labels(self):
        labels, groups, priors = self.make_validation()
        init = HingeWeights()
        out, _ = learn_weights(HingeConfig(init, learn_steps=5, learning_rate=0.05), labels, groups,
                               priors)
        assert out.prior / max(out.neg, 1e-9) > init.prior / init.neg

    def test_pure_campaign_groups_keep_positive_relation_weights(self):
        # groups pure spam or pure ham: observed relational hinge values are zero,
        # so relation weights can only grow from their positive initialization
        labels, _, priors = self.make_validation()
        pure_groups = hub_table(*(("user", f"u{j}", range(j, 12, 4)) for j in range(4)
                                  if len(set(labels[j::4].tolist())) == 1),
                                ("text", "s", np.flatnonzero(labels == 1)),
                                ("text", "h", np.flatnonzero(labels == 0)))
        out, _ = learn_weights(HingeConfig(learn_steps=5), labels, pure_groups, priors)
        for rel in pure_groups.relations:
            assert out.relation_c[rel] > 0
            assert out.relation_d[rel] > 0

    def test_weights_stay_nonnegative(self):
        labels, groups, priors = self.make_validation()
        out, _ = learn_weights(HingeConfig(learn_steps=20, learning_rate=5.0), labels, groups,
                               priors)
        assert out.neg >= 0 and out.prior >= 0
        for rel in groups.relations:
            assert out.relation_c[rel] >= 0 and out.relation_d[rel] >= 0



def reference_learn_weights(init, labels, groups, priors, steps, learning_rate):
    """learn_weights as a loop over ("neg",), ("prior",), ("c", relation) and
    ("d", relation) templates, each template's sum and weight kept in a dict
    and updated one template at a time, in sorted template order."""
    weights = HingeWeights(init.neg, init.prior, dict(init.relation_c), dict(init.relation_d))
    if not (labels[groups.members] >= 0).any() or steps <= 0:
        return weights, []
    templates = [("neg",), ("prior",)] + [(kind, r) for r in groups.relations for kind in "cd"]

    def get(template):
        if template[0] in ("neg", "prior"):
            return getattr(weights, template[0])
        return getattr(weights, "relation_" + template[0]).get(template[1], 1.0)

    def put(template, value):
        if template[0] in ("neg", "prior"):
            setattr(weights, template[0], max(0.0, value))
        else:
            getattr(weights, "relation_" + template[0])[template[1]] = max(0.0, value)

    def sums(model, x):
        n = len(templates)
        total = np.bincount(model.template_id, weights=model.potential_values(x), minlength=n)
        rows = np.bincount(model.template_id, minlength=n)
        return {t: float(s) for t, s, r in zip(templates, total, rows) if r}

    model = ground_rules(priors, groups, weights)
    truth = np.where(labels >= 0, labels, priors)
    ends = np.cumsum(groups.sizes)
    # each hub's mean adds its members one by one, in member order
    hub_truth = [sum(truth[groups.members[end - size:end]].tolist()) / size
                 for size, end in zip(groups.sizes.tolist(), ends.tolist())]
    observed_x = np.concatenate([truth[model.messages], hub_truth])
    phi_obs = sums(model, observed_x)
    trace = []
    for _ in range(steps):
        per_template = np.array([get(t) for t in templates], dtype=float)
        model = replace(model, weight=per_template[model.template_id])
        map_state = map_inference(model)
        phi_map = sums(model, map_state.x)
        trace.append(map_state.objective - model.objective(model.linear_values(observed_x)))
        for template in sorted(set(phi_map) | set(phi_obs)):
            put(template, get(template) + learning_rate * (phi_map.get(template, 0.0)
                                                           - phi_obs.get(template, 0.0)))
    return weights, trace


@st.composite
def learning_inputs(draw):
    """(init weights, labels, groups, priors, steps, learning rate) over small
    hub tables of 1-3 relations; the init dicts may leave relations out and
    may name one the groups lack."""
    n = draw(st.integers(2, 10))
    relations = draw(st.lists(st.sampled_from(["link", "text", "user"]), min_size=1, max_size=3,
                              unique=True))
    groups = [(relation, f"k{k}", draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                                                 unique=True)))
              for relation in relations for k in range(draw(st.integers(1, 2)))]
    labels = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)),
                      dtype=np.int8)
    priors = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    weight = st.floats(0.0, 2.0)
    named = st.lists(st.sampled_from(["hashtag", "link", "text", "user"]), unique=True)
    init = HingeWeights(neg=draw(weight), prior=draw(weight),
                        relation_c={r: draw(weight) for r in draw(named)},
                        relation_d={r: draw(weight) for r in draw(named)})
    return (init, labels, hub_table(*groups), priors, draw(st.integers(0, 4)),
            draw(st.sampled_from([0.05, 0.5, 5.0])))


@settings(max_examples=60, deadline=None)
@given(learning_inputs())
def test_learn_weights_matches_per_template_reference_bit_for_bit(inputs):
    init, labels, groups, priors, steps, learning_rate = inputs
    before = json.dumps(asdict(init))
    out, trace = learn_weights(HingeConfig(init, steps, learning_rate), labels, groups, priors)
    ref, ref_trace = reference_learn_weights(init, labels, groups, priors, steps, learning_rate)
    # equal values and key order, as models.json writes them
    assert json.dumps(asdict(out)) == json.dumps(asdict(ref))
    assert trace == ref_trace
    assert json.dumps(asdict(init)) == before  # init is never changed
