"""Regularized logistic regression: the independent per-message classifier.

Spam probabilities from this model, an array over a feature matrix's rows,
are the priors consumed by the stacking and joint-inference modules. Training
is full-batch gradient descent with backtracking line search, so it is
deterministic.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data_model import DataError
from .features import FeatureMatrix

log = logging.getLogger(__name__)

PROB_EPS = 1e-15


def sigmoid(z):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    return float(np.log(p / (1.0 - p)))


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


class Scaler:
    """Standardizes a chosen subset of columns with training statistics."""

    def __init__(self, column_indices, means, stds):
        self.column_indices = list(column_indices)
        self.means = np.asarray(means, dtype=float)
        self.stds = np.asarray(stds, dtype=float)

    @classmethod
    def fit(cls, X: sp.spmatrix, column_indices: list) -> "Scaler":
        sub = np.asarray(X.tocsc()[:, column_indices].todense())
        means = sub.mean(axis=0)
        stds = sub.std(axis=0)
        stds[stds < 1e-12] = 1.0
        return cls(column_indices, means, stds)

    def transform(self, X: sp.spmatrix) -> sp.csr_matrix:
        if not self.column_indices:
            return X.tocsr()
        Xc = X.tocsc()
        scaled = (np.asarray(Xc[:, self.column_indices].todense()) - self.means) / self.stds
        rest_idx = [j for j in range(X.shape[1]) if j not in set(self.column_indices)]
        combined = sp.hstack([sp.csr_matrix(scaled), Xc[:, rest_idx]], format="csr")
        # restore the original column order
        perm = list(self.column_indices) + rest_idx
        inverse = np.empty(len(perm), dtype=int)
        inverse[perm] = np.arange(len(perm))
        return combined[:, inverse].tocsr()

    def to_dict(self) -> dict:
        return {
            "column_indices": self.column_indices,
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(d["column_indices"], d["means"], d["stds"])


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    l2: float
    n_iter: int = 0
    converged: bool = True
    columns_hash: str = ""
    scaler: Scaler | None = None
    loss_trace: list = field(default_factory=list, repr=False)

    def decision(self, X: sp.spmatrix) -> np.ndarray:
        Xs = self.scaler.transform(X) if self.scaler is not None else X
        return np.asarray(Xs @ self.weights).ravel() + self.bias

    def predict_proba_matrix(self, X: sp.spmatrix) -> np.ndarray:
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
                "converged": self.converged,
                "scaler": self.scaler.to_dict() if self.scaler is not None else None}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(**{**d, "weights": np.array(d["weights"], dtype=float),
                      "scaler": Scaler.from_dict(d["scaler"]) if d["scaler"] else None})


def _margins(X, w, b):
    return np.asarray(X @ w).ravel() + b


def _margin_loss(z, y, w, l2):
    # mean of log(1 + exp(-s*z)) with s = +-1 at margins z, computed stably
    sz = np.where(y > 0.5, z, -z)
    per_row = np.where(sz > 0, np.log1p(np.exp(-sz)), -sz + np.log1p(np.exp(sz)))
    return per_row.mean() + 0.5 * l2 * float(w @ w)


def train(X: sp.spmatrix, y: np.ndarray, l2: float = 1.0, max_iter: int = 500,
          tol: float = 1e-6) -> LinearModel:
    """Minimize L2-regularized logistic loss to gradient inf-norm <= tol.

    Single-class targets yield a constant-probability model (with a warning)
    rather than an error.
    """
    if l2 < 0:
        raise DataError("l2 must be >= 0")
    X = X.tocsr()
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != len(y):
        raise DataError("row count of X and y disagree")
    n, d = X.shape

    prevalence = y.mean() if n else 0.0
    if n == 0 or prevalence in (0.0, 1.0):
        log.warning("single-class training data (prevalence=%.3f): constant model", prevalence)
        return LinearModel(weights=np.zeros(d), bias=_logit(prevalence), l2=l2,
                           n_iter=0, converged=True)

    # X.T as CSR, built once: its products sum each column of X in ascending row
    # order, as X.T @ v does through the transposed view, so they are bit-identical
    XT = X.T.tocsr()
    # z = X @ w + b at the current point, kept from the line search for the next gradient
    w = np.zeros(d)
    b = 0.0
    z = _margins(X, w, b)
    loss = _margin_loss(z, y, w, l2)
    trace = [loss]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        p = sigmoid(z)
        resid = (p - y) / n
        grad_w = np.asarray(XT @ resid).ravel() + l2 * w
        grad_b = resid.sum()
        gnorm = max(np.abs(grad_w).max(initial=0.0), abs(grad_b))
        if gnorm <= tol:
            converged = True
            break
        gsq = float(grad_w @ grad_w) + grad_b * grad_b
        step = min(step * 2.0, 64.0)
        while step > 1e-16:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            z_new = _margins(X, w_new, b_new)
            loss_new = _margin_loss(z_new, y, w_new, l2)
            if loss_new <= loss - 1e-4 * step * gsq:
                break
            step *= 0.5
        w, b, z, loss = w_new, b_new, z_new, loss_new
        trace.append(loss)
    if not converged:
        log.warning("training stopped at max_iter=%d (gradient norm above tol)", max_iter)
    return LinearModel(weights=w, bias=b, l2=l2, n_iter=it, converged=converged,
                       loss_trace=trace)


@dataclass
class ClassifierConfig:
    l2: float = 1.0
    max_iter: int = 300
    tol: float = 1e-6


def fit_classifier(fm: FeatureMatrix, labels, scale_columns: list | None = None,
                   config: ClassifierConfig | None = None) -> LinearModel:
    """Train on a FeatureMatrix and the labels of its rows (0/1, -1
    unlabeled, which fails), standardizing the given columns."""
    config = config or ClassifierConfig()
    labels = np.asarray(labels)
    if labels.shape != (fm.shape[0],):
        raise DataError(f"{labels.size} labels for {fm.shape[0]} training rows")
    missing = np.flatnonzero(labels < 0)
    if len(missing):
        raise DataError(f"{len(missing)} training rows lack labels "
                        f"(first: row {missing[0]})")
    y = labels.astype(float)

    scaler = None
    X = fm.matrix
    if scale_columns:
        col_index = fm.column_index
        idx = [col_index[c] for c in scale_columns if c in col_index]
        if idx:
            scaler = Scaler.fit(X, idx)
            X = scaler.transform(X)
    model = train(X, y, l2=config.l2, max_iter=config.max_iter, tol=config.tol)
    model.scaler = scaler
    model.columns_hash = columns_hash(fm.column_names)
    return model
