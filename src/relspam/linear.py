"""Regularized logistic regression: the independent per-message classifier.

Spam probabilities from this model, an array over a feature matrix's rows, are
the priors consumed by the stacking and joint-inference modules. Training is a
truncated Newton-CG: each Newton step solves H d = -g by `conjugate_gradients`
on Hessian-vector products, never forming H, to a residual of `CG_RTOL` of the
gradient, then backtracks to an Armijo point, so it is deterministic. The
hinge-loss MRF's MAP solver takes its Newton steps from the same loop. The
solver works on standardized columns to condition those steps, the
standardization folded into the products so that each runs on the raw `CSR`
matrix, whose kernels (`CSR.products`) are built once per fit; a fitted
model is the raw-space weights and bias it predicts with.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .data_model import DataError
from .features import CSR, FeatureMatrix, scalable_columns

log = logging.getLogger(__name__)

PROB_EPS = 1e-15


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def recenter_scores(scores: np.ndarray, center: float) -> np.ndarray:
    """Shift probabilities in log-odds so `center` maps to 0.5.

    Joint and pooled models treat 0.5 as neutral, but a calibrated classifier
    on imbalanced data scores even clear spam below 0.5; dividing out the base
    rate puts group evidence on the right side of neutral. Extreme values
    (gold labels injected as 0/1) stay extreme, and NaN (unscored) stays NaN.
    """
    center = min(max(center, 1e-6), 1.0 - 1e-6)
    shift = np.log(center / (1.0 - center))
    p = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return 1.0 / (1.0 + np.exp(-(np.log(p / (1.0 - p)) - shift)))


def columns_hash(column_names: list) -> str:
    h = hashlib.sha256("\x1f".join(column_names).encode("utf-8")).hexdigest()
    return h[:16]


@dataclass
class LinearModel:
    """A logistic classifier over raw feature columns, decision X @ weights +
    bias; `l2` is the penalty of its fit, on the standardized weights."""

    weights: np.ndarray
    bias: float
    l2: float
    n_iter: int = 0
    converged: bool = True
    columns_hash: str = ""
    loss_trace: list = field(default_factory=list, repr=False)

    def decision(self, X: CSR) -> np.ndarray:
        return X.dot(self.weights) + self.bias

    def predict_proba_matrix(self, X: CSR) -> np.ndarray:
        if X.shape[1] != len(self.weights):
            raise DataError(f"feature width {X.shape[1]} does not match model ({len(self.weights)})")
        return np.clip(sigmoid(self.decision(X)), PROB_EPS, 1.0 - PROB_EPS)

    def predict_proba(self, fm: FeatureMatrix) -> np.ndarray:
        """Spam probabilities of the matrix's rows, in row order."""
        if self.columns_hash and columns_hash(fm.column_names) != self.columns_hash:
            raise DataError("feature matrix columns do not match the model's column dictionary")
        return self.predict_proba_matrix(fm.matrix)

    def to_dict(self) -> dict:
        return {"columns_hash": self.columns_hash, "weights": self.weights.tolist(),
                "bias": float(self.bias), "l2": self.l2, "n_iter": self.n_iter,
                "converged": self.converged}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(**{**d, "weights": np.array(d["weights"], dtype=float)})


def _standardization(X: CSR, columns: list):
    """(s, m) such that the matrix with `columns` standardized by their means
    and stds is X * s - m row by row: s = 1/std and m = mean/std there, 1 and
    0 elsewhere. A constant column keeps std 1."""
    s, m = np.ones(X.shape[1]), np.zeros(X.shape[1])
    if len(columns):
        sub = X.dense_columns(columns)
        stds = sub.std(axis=0)
        stds[stds < 1e-12] = 1.0
        s[columns] = 1.0 / stds
        m[columns] = sub.mean(axis=0) / stds
    return s, m


def _margin_loss(z, y, w, l2):
    # mean of log(1 + exp(-s*z)) with s = +-1 at margins z, computed stably
    return np.logaddexp(0.0, np.where(y > 0.5, -z, z)).mean() + 0.5 * l2 * float(w @ w)


CG_RTOL = 0.1  # a CG solve stops once its residual is this share of the gradient
CG_MAX_ITER = 100


def conjugate_gradients(hess_vec, b, done, max_iter: int, inverse_diagonal=1.0) -> np.ndarray:
    """Conjugate gradients on H d = b from d = 0, for a positive semi-definite
    H given by its products `hess_vec`, preconditioned by `inverse_diagonal`
    (1.0: none): stops once `done(r)` holds of the residual r, after
    `max_iter` products, or on non-positive curvature."""
    d, r, p = np.zeros_like(b), b, inverse_diagonal * b
    rz = float(r @ p)
    for _ in range(max_iter):
        if done(r):
            break
        Hp = hess_vec(p)
        curvature = float(p @ Hp)
        if curvature <= 0.0:
            break
        alpha = rz / curvature
        d, r = d + alpha * p, r - alpha * Hp
        z = inverse_diagonal * r
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return d


@dataclass
class ClassifierConfig:
    l2: float = 1.0
    max_iter: int = 300
    tol: float = 1e-6


def train(X: CSR, y: np.ndarray, config: ClassifierConfig,
          standardize: list = ()) -> LinearModel:
    """Minimize logistic loss with the L2 penalty `config.l2` over the columns
    of X, those at the indices `standardize` standardized, to gradient
    inf-norm <= `config.tol` in at most `config.max_iter` Newton iterations,
    and return the minimizer as raw-space weights and bias. The bias is not
    regularized. The settings arrive checked by the config.

    Single-class targets yield a constant-probability model (with a warning)
    rather than an error.
    """
    l2, tol = config.l2, config.tol
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != len(y):
        raise DataError("row count of X and y disagree")
    n, d = X.shape

    prevalence = y.mean() if n else 0.0
    if n == 0 or prevalence in (0.0, 1.0):
        log.warning("single-class training data (prevalence=%.3f): constant model", prevalence)
        p = min(max(prevalence, 1e-9), 1.0 - 1e-9)
        return LinearModel(weights=np.zeros(d), bias=float(np.log(p / (1.0 - p))), l2=l2)

    # x = (w, b) acts through A = [X * s - m, 1], whose products run on X
    times, transpose_times = X.products()
    s, m = _standardization(X, standardize)
    reg = np.append(np.full(d, float(l2)), 0.0)

    def product(v):  # A @ v
        return times(s * v[:d]) + (v[d] - m @ v[:d])

    def adjoint(u):  # A.T @ u
        total = u.sum()
        return np.append(s * transpose_times(u) - m * total, total)

    x = np.zeros(d + 1)
    z = np.zeros(n)  # margins A @ x, carried along each accepted step
    loss = _margin_loss(z, y, x[:d], l2)
    trace = [loss]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        p = sigmoid(z)
        g = adjoint((p - y) / n) + reg * x
        if np.abs(g).max() <= tol:
            converged = True
            break
        curv = p * (1.0 - p) / n
        gg = float(g @ g)
        direction = conjugate_gradients(lambda v: adjoint(curv * product(v)) + reg * v, -g,
                                        lambda r: float(r @ r) <= CG_RTOL * CG_RTOL * gg,
                                        CG_MAX_ITER)
        if not direction.any():  # CG took no step
            direction = -g
        z_dir = product(direction)
        slope = float(g @ direction)
        for step in 0.5 ** np.arange(50):  # Armijo backtracking, strict: a step must lower the loss
            loss_new = _margin_loss(z + step * z_dir, y, x[:d] + step * direction[:d], l2)
            if loss_new < loss + 1e-4 * step * slope:
                break
        else:
            break  # no step lowers the loss: the fit is at rounding level
        x, z, loss = x + step * direction, z + step * z_dir, loss_new
        trace.append(loss)
    if not converged:
        log.warning("training stopped after %d Newton iterations (gradient norm above tol)", it)
    w = x[:d]
    return LinearModel(weights=s * w, bias=float(x[d] - m @ w), l2=l2, n_iter=it,
                       converged=converged, loss_trace=trace)


def fit_classifier(fm: FeatureMatrix, labels, config: ClassifierConfig) -> LinearModel:
    """Train on a FeatureMatrix and the labels of its rows (0/1, -1
    unlabeled, which fails), standardizing its `scalable_columns`."""
    labels = np.asarray(labels)
    if labels.shape != (fm.shape[0],):
        raise DataError(f"{labels.size} labels for {fm.shape[0]} training rows")
    missing = np.flatnonzero(labels < 0)
    if len(missing):
        raise DataError(f"{len(missing)} training rows lack labels "
                        f"(first: row {missing[0]})")
    col_index = fm.column_index
    model = train(fm.matrix, labels, config,
                  [col_index[c] for c in scalable_columns(fm.column_names)])
    model.columns_hash = columns_hash(fm.column_names)
    return model
