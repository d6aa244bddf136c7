"""Inputs in the form the models take: message records as the checked
`MessageRow`s that `build_groups` takes; groups as a `GroupTable` whose members
are message positions, and scores as float arrays over positions; a `CSR`
matrix as scipy.sparse holds it, which the tests take as their reference; a
hinge model's objective and gradient at a point, and its coefficients as a
dense matrix; the MRF's exact marginals; and the two conjugate-gradient loops
that `linear.conjugate_gradients` replaced."""

import numpy as np
import scipy.sparse as sp

from relspam.data_model import DataError, GroupTable, MessageRow, _record_fields
from relspam.features import CSR
from relspam.linear import CG_MAX_ITER, CG_RTOL


def rows_of(records) -> list:
    """The `MessageRow`s of message records, each checked as `message_table`
    checks it, a missing timestamp its index in `records`."""
    return [MessageRow._make(_record_fields(rec, i)) for i, rec in enumerate(records)]


def records_of(rows) -> list:
    """The records of `MessageRow`s, every field present."""
    return [row._asdict() for row in rows]


def hub_table(*groups) -> GroupTable:
    """The table of (relation, key, member positions) groups, in the given
    order, each group's members sorted; relation codes index the sorted names.
    The key only names a group for the reader: the table keeps none."""
    relations = sorted({relation for relation, _, _ in groups})
    members = [sorted(m) for _, _, m in groups]
    return GroupTable(relations, [relations.index(relation) for relation, _, _ in groups],
                      [len(m) for m in members],
                      np.array([p for m in members for p in m], dtype=np.int32))


def over(n: int, values: dict) -> np.ndarray:
    """A float array over n positions: `values` (position -> value), NaN elsewhere."""
    out = np.full(n, np.nan)
    for position, value in values.items():
        out[position] = value
    return out


def scipy_of(m: CSR) -> sp.csr_matrix:
    """The scipy.sparse matrix of a `CSR`, on copies of its arrays."""
    return sp.csr_matrix((m.data.copy(), m.indices.copy(), m.indptr.copy()), shape=m.shape)


def csr_of(dense) -> CSR:
    """The `CSR` of a dense array or a list of rows."""
    return CSR.from_dense(np.asarray(dense, dtype=float))


def hinge_terms(rows) -> tuple:
    """(cols, coef) of a hinge model whose row i has the one or two distinct
    (column, coefficient) terms rows[i], in order; a one-term row repeats its
    column with coefficient 0."""
    cols = np.array([[r[0][0], r[-1][0]] for r in rows], dtype=np.int64).reshape(-1, 2)
    coef = np.array([[r[0][1], r[1][1] if len(r) > 1 else 0.0] for r in rows],
                    dtype=float).reshape(-1, 2)
    return cols, coef


def dense_coefficients(model) -> np.ndarray:
    """A hinge model's coefficient matrix A, dense: row i holds its terms."""
    A = np.zeros((len(model.const), model.n_vars))
    np.add.at(A, (np.arange(len(model.const))[:, None], model.cols), model.coef)
    return A


def objective_at(model, x: np.ndarray) -> float:
    """A hinge model's objective at the point x."""
    return model.objective(model.linear_values(x))


def gradient_at(model, x: np.ndarray) -> np.ndarray:
    """A hinge model's gradient at the point x."""
    return model.gradient(model.linear_values(x))


def exact_marginals(graph) -> np.ndarray:
    """An MRF factor graph's spam marginals by enumerating every assignment,
    each weighted by the prior log-odds of its spam variables and by the
    factor tables."""
    n = len(graph.h0)
    if n > 20:
        raise DataError(f"exact enumeration capped at 20 variables, got {n}")
    if n == 0:
        return np.zeros(0)
    states = ((np.arange(2 ** n, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    # a state's prior weight, up to a constant: exp of its spam variables' summed log-odds
    w = np.exp(states @ graph.h0)
    for (a, b), e in zip(graph.factors, graph.epsilon):
        w *= np.where(states[:, a] == states[:, b], 1.0 - e, e)
    z = w.sum()
    if z <= 0:
        raise DataError("partition function vanished; check potentials")
    return np.array([w[states[:, i] == 1].sum() / z for i in range(n)])


def reference_newton_direction(hess_vec, g):
    """The logistic fit's own loop, as it was: truncated conjugate gradients on
    H d = -g, stopping at ||r|| <= CG_RTOL ||g||, after CG_MAX_ITER products,
    or on non-positive curvature; -g when it took no step."""
    d, r, p = np.zeros_like(g), -g, -g
    rr = gg = float(g @ g)
    for _ in range(CG_MAX_ITER):
        Hp = hess_vec(p)
        curvature = float(p @ Hp)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        d, r = d + alpha * p, r - alpha * Hp
        rr, rr_old = float(r @ r), rr
        if rr <= CG_RTOL * CG_RTOL * gg:
            break
        p = r + (rr / rr_old) * p
    return d if d.any() else -g


def reference_conjugate_gradients(hess_vec, diagonal, b, target):
    """The hinge-loss MAP's own loop, as it was: conjugate gradients on H d = b
    from d = 0, preconditioned by H's `diagonal` held within 1e-12 of its
    largest entry; stops once no residual entry exceeds `target`, after
    len(b) products, or on non-positive curvature."""
    inverse_diagonal = 1.0 / np.maximum(diagonal, 1e-12 * diagonal.max(initial=0.0))
    d, r, p = np.zeros_like(b), b, inverse_diagonal * b
    rz = float(r @ p)
    for _ in range(len(b)):
        if np.max(np.abs(r), initial=0.0) <= target:
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
