"""Inputs in the form the models take: groups as a `GroupTable` whose members
are message positions, and scores as float arrays over positions; a hinge
model's objective and gradient at a point; and the MRF's exact marginals."""

import numpy as np

from relspam.data_model import DataError, GroupTable


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
