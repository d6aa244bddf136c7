import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relspam.data_model import DataError, chronological_split, message_table
from relspam.evaluation import ExperimentConfig, featurize_subset
from relspam.features import FeatureMatrix, scalable_columns
from relspam.hinge import jacobi_inverse
from relspam.linear import (
    CG_MAX_ITER,
    CG_RTOL,
    ClassifierConfig,
    LinearModel,
    columns_hash,
    conjugate_gradients,
    fit_classifier,
    recenter_scores,
    sigmoid,
    train,
)
from relspam.synth import GeneratorConfig, generate

from tables import csr_of, reference_conjugate_gradients, reference_newton_direction, scipy_of


def random_instance(rng, n=50, d=5):
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    p = 1.0 / (1.0 + np.exp(-(X @ w_true)))
    y = (rng.random(n) < p).astype(float)
    return csr_of(X), y


def gd_oracle(X, y, l2, iters=200000, lr=0.5, tol=1e-6):
    """Naive fixed-step full-batch gradient descent, independent of the solver."""
    X = scipy_of(X).toarray()
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        gw = X.T @ (p - y) / n + l2 * w
        gb = (p - y).mean()
        if max(np.abs(gw).max(), abs(gb)) <= tol:
            break
        w -= lr * gw
        b -= lr * gb
    return w, b


class TestTrain:
    def test_loss_decreases_monotonically(self):
        X = csr_of(np.array([[1.0], [-1.0]]))
        y = np.array([1.0, 0.0])
        model = train(X, y, ClassifierConfig(l2=1.0))
        diffs = np.diff(model.loss_trace)
        assert (diffs <= 0).all()

    def test_single_class_constant_model(self):
        X = csr_of(np.random.default_rng(0).normal(size=(10, 3)))
        y = np.zeros(10)
        model = train(X, y, ClassifierConfig(l2=1.0))
        p = model.predict_proba_matrix(X)
        assert np.allclose(p, p[0])
        assert p[0] == pytest.approx(0.0, abs=1e-6)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(123)
        X, y = random_instance(rng, n=50, d=5)
        if len(set(y)) < 2:
            pytest.skip("degenerate draw")
        model = train(X, y, ClassifierConfig(l2=0.1, max_iter=5000, tol=1e-8))
        w_ref, b_ref = gd_oracle(X, y, l2=0.1)
        assert model.converged
        assert np.abs(model.weights - w_ref).max() < 1e-4
        assert abs(model.bias - b_ref) < 1e-4

    def test_final_loss_beats_zero_vector(self):
        rng = np.random.default_rng(7)
        X, y = random_instance(rng, n=80, d=6)
        model = train(X, y, ClassifierConfig(l2=0.5))
        assert model.loss_trace[-1] <= model.loss_trace[0]

    def test_retraining_is_bit_reproducible(self):
        rng = np.random.default_rng(21)
        X, y = random_instance(rng, n=40, d=4)
        a = train(X, y, ClassifierConfig(l2=1.0))
        b = train(X, y, ClassifierConfig(l2=1.0))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_tol_zero_ends_once_no_step_lowers_the_loss(self):
        # tol 0 is never met: the fit must end where the loss stops falling, not
        # run out max_iter Newton steps that leave it as it is
        X, y = random_instance(np.random.default_rng(31), 60, 5)
        model = train(X, y, ClassifierConfig(l2=0.1, max_iter=300, tol=0.0))
        assert not model.converged and model.n_iter <= 20
        assert (np.diff(model.loss_trace) < 0).all()
        # the loss a fit that also takes loss-preserving steps stands at after 300 iterations
        assert model.loss_trace[-1] == pytest.approx(0.5417822234808224, rel=1e-15, abs=0)


class TestPredict:
    def test_zero_model_gives_half(self):
        model = LinearModel(weights=np.zeros(3), bias=0.0, l2=1.0)
        X = csr_of(np.random.default_rng(1).normal(size=(5, 3)))
        assert np.allclose(model.predict_proba_matrix(X), 0.5)

    def test_large_margin_saturates(self):
        model = LinearModel(weights=np.array([20.0]), bias=0.0, l2=1.0)
        X = csr_of(np.array([[1.0]]))
        assert model.predict_proba_matrix(X)[0] >= 1 - 1e-8

    def test_sigmoid_inverse_point(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0, l2=1.0)
        X = csr_of(np.array([[0.8472978]]))
        assert model.predict_proba_matrix(X)[0] == pytest.approx(0.7, abs=1e-6)

    def test_monotone_in_score(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0, l2=1.0)
        X = csr_of(np.linspace(-3, 3, 13).reshape(-1, 1))
        p = model.predict_proba_matrix(X)
        assert (np.diff(p) > 0).all()

    def test_width_mismatch_rejected(self):
        model = LinearModel(weights=np.zeros(3), bias=0.0, l2=1.0)
        with pytest.raises(DataError):
            model.predict_proba_matrix(csr_of(np.ones((2, 4))))

    def test_column_hash_mismatch_rejected(self):
        fm = FeatureMatrix(["a", "b"], csr_of(np.ones((1, 2))))
        model = LinearModel(weights=np.zeros(2), bias=0.0, l2=1.0,
                            columns_hash=columns_hash(["a", "c"]))
        with pytest.raises(DataError):
            model.predict_proba(fm)


def dense_standardized(X, cols):
    """X as a dense array with the columns `cols` standardized by their means and
    stds (std 1 for a constant column), independently of the solver."""
    dense = scipy_of(X).toarray()
    means, stds = dense[:, cols].mean(axis=0), dense[:, cols].std(axis=0)
    stds[stds < 1e-12] = 1.0
    dense[:, cols] = (dense[:, cols] - means) / stds
    return dense, means, stds


def standardized_fit(model, X, cols):
    """(weights, bias) over `dense_standardized(X, cols)` that decide as the
    raw-space `model` does over X."""
    _, means, stds = dense_standardized(X, cols)
    w = model.weights.copy()
    w[cols] *= stds
    return w, model.bias + float(means @ model.weights[cols])


def assert_decision_matches_dense(X, y, cols):
    """A fit standardizing `cols` decides over X as the fit on the dense
    standardized matrix does over it, and is that fit in raw space."""
    model = train(X, y, ClassifierConfig(l2=1.0), standardize=cols)
    dense = csr_of(dense_standardized(X, cols)[0])
    reference = train(dense, y, ClassifierConfig(l2=1.0))
    np.testing.assert_allclose(model.decision(X), reference.decision(dense), rtol=0, atol=1e-12)
    w, b = standardized_fit(model, X, cols)
    np.testing.assert_allclose(w, reference.weights, rtol=0, atol=1e-12)
    assert b == pytest.approx(reference.bias, abs=1e-12)
    return model, reference


class TestScaler:
    """The column scaling the solver works in, seen through the raw-space model."""

    def test_standardizes_selected_columns(self):
        X = csr_of(np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]]))
        model, reference = assert_decision_matches_dense(X, np.array([0.0, 1.0, 1.0]), [0])
        # column 0 is seen as (x - 3) / std, so its raw weight is the standardized one / std
        assert model.weights[0] * np.std([1.0, 3.0, 5.0]) == pytest.approx(
            reference.weights[0], abs=1e-12)
        assert model.weights[1] == pytest.approx(reference.weights[1], abs=1e-12)

    def test_constant_column_left_finite(self):
        X = csr_of(np.full((4, 1), 2.0))
        model, _ = assert_decision_matches_dense(X, np.array([0.0, 1.0, 0.0, 1.0]), [0])
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
        assert np.isfinite(model.decision(X)).all()

    def test_column_order_preserved(self):
        rng = np.random.default_rng(4)
        X = csr_of(rng.normal(size=(6, 4)))
        model, reference = assert_decision_matches_dense(
            X, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), [1, 3])
        # the columns left raw keep their weights in place
        assert np.allclose(model.weights[[0, 2]], reference.weights[[0, 2]])


class TestFitClassifier:
    def make_fm(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
        fm = FeatureMatrix(["f0", "f1"], csr_of(X))
        return fm, y.astype(np.int8)

    def test_fit_and_predict(self):
        fm, labels = self.make_fm()
        model = fit_classifier(fm, labels, ClassifierConfig())
        preds = model.predict_proba(fm)
        assert preds.shape == (fm.shape[0],)
        assert ((0 < preds) & (preds < 1)).all()

    def test_missing_labels_rejected(self):
        fm, labels = self.make_fm()
        labels[3] = -1
        with pytest.raises(DataError, match="first: row 3"):
            fit_classifier(fm, labels, ClassifierConfig())

    def test_label_count_must_match_rows(self):
        fm, labels = self.make_fm()
        with pytest.raises(DataError):
            fit_classifier(fm, labels[1:], ClassifierConfig())

    def test_scaler_covers_dense_and_pseudo_columns_only(self):
        columns = ["num_chars", "is_retweet", "ng:abc", "user_blacklist", "pagerank",
                   "user_whitelist", "ng:xyz", "pr_user", "pr_text"]
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, len(columns)))
        binary = [1, 2, 3, 5, 6]  # the indicators and n-grams hold 0/1
        X[:, binary] = X[:, binary] > 0
        labels = (X[:, 0] > 0).astype(np.int8)
        X = csr_of(X)
        model = fit_classifier(FeatureMatrix(columns, X), labels, ClassifierConfig())
        scaled = [columns.index(c) for c in ("num_chars", "pagerank", "pr_user", "pr_text")]
        assert [columns[j] for j in scaled] == scalable_columns(columns)

        def gradient(cols):  # of the fit's objective with `cols` standardized
            w, b = standardized_fit(model, X, cols)
            return np.abs(dense_objective_and_gradient(X, labels, 1.0, w, b, cols)[1]).max()
        # the fit is the minimizer with exactly those columns standardized
        assert gradient(scaled) <= 1e-6
        assert gradient([]) > 1e-3 and gradient(list(range(len(columns)))) > 1e-3

    def test_serialization_round_trip(self):
        fm, labels = self.make_fm()
        model = fit_classifier(fm, labels, config=ClassifierConfig(l2=0.5))
        restored = LinearModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert model.predict_proba(fm).tolist() == restored.predict_proba(fm).tolist()


def test_recenter_maps_center_to_neutral_and_keeps_extremes_and_nan():
    out = recenter_scores(np.array([0.2, 0.0, 1.0, np.nan, 0.5]), 0.2)
    assert out[0] == pytest.approx(0.5, abs=1e-12)
    assert out[1] < 1e-9 and out[2] > 1 - 1e-9
    assert np.isnan(out[3])
    assert out[4] > 0.5


def test_sigmoid_extremes_stay_in_unit_interval():
    z = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
    p = sigmoid(z)
    assert (p >= 0).all() and (p <= 1).all()
    assert p[2] == 0.5


def reference_batch_train(X, y, l2, max_iter, tol):
    """Full-batch gradient descent with backtracking, the solver before
    Newton-CG. Returns (weights, bias, n_iter, converged, loss_trace)."""
    X = scipy_of(X)

    def loss_at(w, b):
        z = np.asarray(X @ w).ravel() + b
        sz = np.where(y > 0.5, z, -z)
        per_row = np.where(sz > 0, np.log1p(np.exp(-sz)), -sz + np.log1p(np.exp(sz)))
        return per_row.mean() + 0.5 * l2 * float(w @ w)

    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    loss = loss_at(w, b)
    trace = [loss]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = sigmoid(np.asarray(X @ w).ravel() + b)
        resid = (p - y) / n
        grad_w = np.asarray(X.T @ resid).ravel() + l2 * w
        grad_b = resid.sum()
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) <= tol:
            converged = True
            break
        gsq = float(grad_w @ grad_w) + grad_b * grad_b
        step = min(step * 2.0, 64.0)
        while step > 1e-16:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new = loss_at(w_new, b_new)
            if loss_new <= loss - 1e-4 * step * gsq:
                break
            step *= 0.5
        w, b, loss = w_new, b_new, loss_new
        trace.append(loss)
    return w, b, it, converged, trace


def sparse_binary_instance(seed, n=300, d=40):
    """n-gram-like rows: a few dense standardized columns and sparse 0/1 columns."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, 3))
    binary = (rng.random((n, d)) < 0.08).astype(float)
    y = ((dense[:, 0] + binary[:, :5].sum(axis=1) + rng.normal(size=n)) > 1.0).astype(float)
    return csr_of(np.hstack([dense, binary])), y


def dense_objective_and_gradient(X, y, l2, w, b, cols=()):
    """The objective at (w, b) and its gradient over (w, b), by dense numpy on
    the matrix with the columns `cols` standardized."""
    dense = dense_standardized(X, list(cols))[0]
    z = dense @ w + b
    objective = np.logaddexp(0.0, np.where(y > 0.5, -z, z)).mean() + 0.5 * l2 * float(w @ w)
    resid = (1.0 / (1.0 + np.exp(-z)) - y) / len(y)
    return objective, np.append(dense.T @ resid + l2 * w, resid.sum())


@pytest.mark.parametrize("make,l2,max_iter,tol", [
    (lambda: random_instance(np.random.default_rng(31), n=60, d=5), 0.1, 5000, 1e-8),
    (lambda: random_instance(np.random.default_rng(32), n=40, d=3), 1.0, 500, 1e-6),
    (lambda: sparse_binary_instance(33), 1.0, 300, 1e-6),
    (lambda: sparse_binary_instance(34), 0.01, 25, 1e-6),  # the reference stops at max_iter
    (lambda: sparse_binary_instance(35), 1e-3, 300, 1e-6),
    (lambda: sparse_binary_instance(36), 1e-2, 300, 1e-6),
])
def test_solver_is_optimal_against_reference_loop(make, l2, max_iter, tol):
    X, y = make()
    model = train(X, y, ClassifierConfig(l2=l2, max_iter=max_iter, tol=tol))
    w, b, _, converged, _ = reference_batch_train(X, y, l2, max_iter, tol)
    objective, grad = dense_objective_and_gradient(X, y, l2, model.weights, model.bias)
    reference, _ = dense_objective_and_gradient(X, y, l2, w, b)
    assert model.converged and model.n_iter <= max_iter
    assert np.abs(grad).max() <= tol
    if converged:
        assert objective <= reference + 1e-12
    else:
        assert objective < reference


@pytest.fixture(scope="module")
def generated_training_slice():
    """The training slice of subset 0 of a generated dataset, fully featurized."""
    messages, _ = generate(GeneratorConfig(n_messages=3000, n_users=150, n_campaigns=15), 42)
    config = ExperimentConfig()
    table = message_table(messages)
    subset = chronological_split(table, 3, config.fractions)[0]
    a, b = subset.train
    fm = featurize_subset(table, subset, config, {}).rows(0, b - a)
    return fm, table.labels[a:b]


@pytest.mark.parametrize("l2", [1e-3, 1e-2, 0.1, 1.0])
def test_fit_converges_across_the_l2_grid(generated_training_slice, l2):
    fm, labels = generated_training_slice
    model = fit_classifier(fm, labels, ClassifierConfig(l2=l2, max_iter=300))
    assert model.converged and model.n_iter <= 300
    # stationary in the standardized space the solver works in
    cols = [fm.column_index[c] for c in scalable_columns(fm.column_names)]
    w, b = standardized_fit(model, fm.matrix, cols)
    _, grad = dense_objective_and_gradient(fm.matrix, labels.astype(float), l2, w, b, cols)
    assert np.abs(grad).max() <= 1e-6


@st.composite
def psd_systems(draw):
    """(H, b): H = B Bᵀ for an n x k integer matrix B, so singular when k < n,
    with row `zero` of B zeroed (a zero row, column and diagonal entry of H)
    unless it is -1; b has an entry per row."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    B = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * k, max_size=n * k)),
                 dtype=float).reshape(n, k)
    B[draw(st.integers(-1, n - 1))] = 0.0  # -1 zeroes the last row too, when n is 1
    entry = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))
    return B @ B.T, np.array(draw(st.lists(entry, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(psd_systems(), st.sampled_from([0.0, 1e-12, 1e-6, 0.1]))
@example((np.zeros((3, 3)), np.array([1.0, -0.5, 0.25])), 0.0)  # zero curvature at once
@example((np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),
          np.array([0.3, 0.7, -1.1])), 0.0)  # a zero diagonal entry
@example((np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 4.0]]),
          np.array([1.0, -1.0, 0.5])), 0.0)  # singular, b partly in its null space
@example((np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]),
          np.array([0.3, -1.7, 0.9])), 0.0)  # full rank: every one of len(b) products runs
def test_conjugate_gradients_matches_both_loops_it_replaced(system, target):
    H, b = system

    def hess_vec(v):
        return H @ v

    # a singular system can drive either loop past the float range: both must do so alike
    with np.errstate(over="ignore", invalid="ignore"):
        # the logistic fit's call: on H d = -g, no preconditioner, to a residual of
        # CG_RTOL of the gradient, and -g when CG took no step
        g = -b
        gg = float(g @ g)
        d = conjugate_gradients(hess_vec, -g, lambda r: float(r @ r) <= CG_RTOL * CG_RTOL * gg,
                                CG_MAX_ITER)
        assert (d if d.any() else -g).tobytes() == \
            reference_newton_direction(hess_vec, g).tobytes()
        # the hinge-loss MAP's call: Jacobi-preconditioned, to a residual entry of `target`
        diagonal = H.diagonal().copy()
        if diagonal.any():  # where it is all zero so is the gradient: MAP has converged
            d = conjugate_gradients(hess_vec, b,
                                    lambda r: np.max(np.abs(r), initial=0.0) <= target,
                                    len(b), jacobi_inverse(diagonal))
            assert d.tobytes() == \
                reference_conjugate_gradients(hess_vec, diagonal, b, target).tobytes()
