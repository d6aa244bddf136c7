"""Inputs in the form the models take: groups as a `GroupTable` whose members
are message positions, and scores as float arrays over positions; and a hinge
model's objective and gradient at a point."""

import numpy as np

from relspam.data_model import GroupTable


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
