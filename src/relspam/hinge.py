"""Hinge-loss Markov random field over [0,1]-valued spam scores.

The four rule templates (negative prior, positive prior, member-to-hub and
hub-to-member propagation) are grounded straight from the groups' (group,
member) edge arrays, the `GroupTable` the hub MRF builds from too, over the
same variables: the free messages that `GroupTable.variables` gives, then one
hub per group, started at its members' mean (`GroupTable.means`). Each
weighted squared hinge potential max(0, l)^2, with l linear in the variables,
is one row of a coefficient matrix A that holds at most two terms per row,
stored as two (column, coefficient) pairs, with a constant, a weight and a
template id. The template weights are one vector in template-id order
(neg, prior, then c and d of each configured relation, sorted by name, so an
id names one template in every slice), which the row weights index. Priors,
observed values and scores are float arrays over chronological positions.
The objective and its gradient take the linear values A @ x + const, which
the MAP line search keeps from one step to the next. MAP inference minimizes
the convex weighted sum by projected Newton steps, each solved by
`linear.conjugate_gradients` on matrix-free Hessian products, the loop the
logistic fit's Newton steps use too, and stops on the projected gradient;
the weight vector can be learned from labeled validation data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data_model import GroupTable
from .linear import conjugate_gradients

log = logging.getLogger(__name__)


@dataclass
class HingeWeights:
    """Rule-template weights, each non-negative: the config's check and
    `read_models` judge them, and `learn_weights` projects onto them."""

    neg: float = 1.0
    prior: float = 1.0
    relation_c: dict = field(default_factory=dict)  # member-to-hub propagation
    relation_d: dict = field(default_factory=dict)  # hub-to-member propagation

    def vector(self, relations: list) -> np.ndarray:
        """The weights in template-id order: neg, prior, then c and d of each
        relation in `relations` (1.0 for a relation the dicts leave out)."""
        return np.array([self.neg, self.prior] + [w for r in relations for w in (
            self.relation_c.get(r, 1.0), self.relation_d.get(r, 1.0))], dtype=float)


@dataclass
class HingeConfig:
    """The hinge-loss MRF settings of an experiment."""

    weights: HingeWeights = field(default_factory=HingeWeights)  # learning starts here
    learn_steps: int = 0  # weight-learning steps on validation; 0 keeps `weights`
    learning_rate: float = 0.05


@dataclass(eq=False)
class GroundHingeModel:
    """A grounded hinge-loss MRF as arrays.

    Row i is the potential weight[i] * max(0, const[i] + A[i] @ x)^2,
    grounded from rule template template_id[i]: 0 neg, 1 prior, then 2 + 2k
    and 3 + 2k the c and d templates of the k-th configured relation by
    name. A[i] @ x is coef[i, 0] * x[cols[i, 0]] + coef[i, 1] * x[cols[i, 1]],
    the terms in the order the template writes them; a one-term row repeats
    its column with coefficient 0. No row names a column twice.
    """

    messages: np.ndarray  # the positions of the message variables, which come first; hubs follow
    cols: np.ndarray  # (n_potentials, 2) int
    coef: np.ndarray  # (n_potentials, 2)
    const: np.ndarray
    weight: np.ndarray
    template_id: np.ndarray
    init: np.ndarray  # a value per variable

    @property
    def n_vars(self) -> int:
        return len(self.init)

    @property
    def potentials(self) -> range:
        """The potentials' row numbers."""
        return range(len(self.const))

    def _product(self, x: np.ndarray) -> np.ndarray:  # A @ x
        return self.coef[:, 0] * x[self.cols[:, 0]] + self.coef[:, 1] * x[self.cols[:, 1]]

    def linear_values(self, x: np.ndarray) -> np.ndarray:
        return self._product(x) + self.const

    def objective(self, lin: np.ndarray) -> float:
        """The weighted sum of the potentials at the linear values `lin`
        (`linear_values` of a point)."""
        return float(self.weight @ np.maximum(0.0, lin) ** 2)

    def gradient(self, lin: np.ndarray) -> np.ndarray:
        """The objective's gradient in the variables at the linear values `lin`."""
        u = 2.0 * self.weight * np.maximum(0.0, lin)  # Aᵀ @ u
        return np.bincount(self.cols.ravel(), weights=(self.coef * u[:, None]).ravel(),
                           minlength=self.n_vars)

    def hessian(self, h: np.ndarray) -> tuple:
        """(product, diagonal) of Aᵀ diag(h) A for a weight `h` per potential,
        never forming the matrix. Its diagonal sums h times each squared
        coefficient of a column; off it, a two-term row i joins its columns
        j and k by h[i]·coef[i, 0]·coef[i, 1], so v -> diagonal ⊙ v plus that
        times v[k] into j and v[j] into k, over the rows with h[i] ≠ 0."""
        diagonal = np.bincount(self.cols.ravel(), weights=(self.coef ** 2 * h[:, None]).ravel(),
                               minlength=self.n_vars)
        cross = h * self.coef[:, 0] * self.coef[:, 1]
        pair = cross != 0.0  # a one-term row's second coefficient is 0
        j, k = self.cols[pair].T
        ends, others = np.concatenate([j, k]), np.concatenate([k, j])
        weights = np.tile(cross[pair], 2)
        return (lambda v: diagonal * v + np.bincount(ends, weights=weights * v[others],
                                                     minlength=self.n_vars)), diagonal

    def potential_values(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.linear_values(x)) ** 2


def ground_rules(priors: np.ndarray, groups: GroupTable, weights: HingeWeights,
                 observed: np.ndarray | None = None) -> GroundHingeModel:
    """Instantiate the rule templates over grouped messages and their hubs.

    `priors` and `observed` are float arrays over positions, NaN where a
    message has none. Observed messages are fixed constants rather than
    variables: they contribute evidence through the relational hinges but
    get no prior hinges of their own. The `weights` arrive non-negative, as
    the config's check, or `learn_weights`' projection, leaves them.

    Variables are the free messages (in position order), then one hub per
    group. Rows are a neg and a prior hinge per free message, then a c and a
    d hinge per (group, member) pair, in group and member order.
    """
    per_template = weights.vector(groups.relations)
    if observed is None:
        observed = np.full(len(priors), np.nan)
    is_observed = ~np.isnan(observed)
    value_of = np.where(is_observed, observed, priors)

    free, index = groups.variables(value_of, ~is_observed)
    n_free = len(free)
    prior = np.clip(priors[free], 0.0, 1.0)

    # one entry per (group, member) pair
    members, rel = groups.members, groups.relation
    hub = n_free + groups.group
    col = index[members]
    is_free = col >= 0
    value = value_of[members]

    # Row slices of the four templates. Each row has up to two (column, coefficient)
    # terms; an observed member's value moves into the constant and its row
    # keeps one term.
    n_rows = 2 * n_free + 2 * len(members)
    neg, prior_rows = slice(0, 2 * n_free, 2), slice(1, 2 * n_free, 2)
    c, d = slice(2 * n_free, n_rows, 2), slice(2 * n_free + 1, n_rows, 2)
    cols = np.zeros((n_rows, 2), dtype=np.int64)
    coef = np.zeros((n_rows, 2))
    two = np.zeros(n_rows, dtype=bool)
    const = np.zeros(n_rows)
    template_id = np.zeros(n_rows, dtype=np.int64)

    cols[neg, 0] = cols[prior_rows, 0] = np.arange(n_free)
    coef[neg, 0], coef[prior_rows, 0] = 1.0, -1.0  # neg: x_m; prior: prior_m - x_m
    const[prior_rows] = prior
    template_id[prior_rows] = 1
    # c: x_m - x_hub, d: x_hub - x_m
    cols[c] = np.column_stack([np.where(is_free, col, hub), hub])
    coef[c, 0], coef[c, 1] = np.where(is_free, 1.0, -1.0), -1.0
    cols[d] = np.column_stack([hub, col])
    coef[d] = (1.0, -1.0)
    two[c] = two[d] = is_free
    const[c] = np.where(is_free, 0.0, value)
    const[d] = np.where(is_free, 0.0, -value)
    template_id[c], template_id[d] = 2 + 2 * rel, 3 + 2 * rel

    cols[~two, 1], coef[~two, 1] = cols[~two, 0], 0.0
    return GroundHingeModel(messages=free, cols=cols, coef=coef, const=const,
                            weight=per_template[template_id], template_id=template_id,
                            init=np.clip(np.concatenate([prior, groups.means(value_of)]), 0, 1))


@dataclass
class MapResult:
    x: np.ndarray  # per variable, in [0, 1]
    objective: float
    converged: bool
    n_iters: int


def jacobi_inverse(diagonal: np.ndarray) -> np.ndarray:
    """The Jacobi preconditioner of a Hessian `diagonal`: its inverse, each
    entry held within 1e-12 of the largest so that neither a zero nor a
    subnormal weight overflows it."""
    return 1.0 / np.maximum(diagonal, 1e-12 * diagonal.max(initial=0.0))


def map_inference(model: GroundHingeModel, tol: float = 1e-9, max_iter: int = 100) -> MapResult:
    """Projected Newton on the box [0,1]^n (Bertsekas 1982), from the priors
    (hubs at the mean of member priors). Each iteration takes the gradient g
    and stops once the projected gradient x - clip(x - g, 0, 1) is at most
    `tol` in every variable. Otherwise it fixes the binding variables (at 0
    with g > 0, at 1 with g < 0), solves the generalized Hessian
    2·Aᵀ diag(w·[lin >= 0]) A (Keerthi & DeCoste, JMLR 2005) over the others
    by conjugate gradients on its products (`GroundHingeModel.hessian`) to a
    residual below tol / 10, and backtracks along the projected arc
    clip(x + t·d, 0, 1) from t = 1 to the Armijo condition.
    The objective is piecewise quadratic, so once the binding variables and
    the active hinges settle, a full step lands on the minimum. `n_iters`
    counts gradients, so a call that converges after k Newton steps reports
    k + 1; one that hits `max_iter`, or stalls where no point of the arc is
    lower, returns unconverged with a warning.
    """
    x = model.init.copy()
    lin = model.linear_values(x)
    converged, it = False, 0
    for it in range(1, max_iter + 1):
        g = model.gradient(lin)
        pg = np.max(np.abs(x - np.clip(x - g, 0.0, 1.0)), initial=0.0)
        if pg <= tol:
            converged = True
            break
        free = ~(((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0)))
        hess_vec, diagonal = model.hessian(2.0 * model.weight * (lin >= 0.0))
        d = conjugate_gradients(lambda v: free * hess_vec(v), np.where(free, -g, 0.0),
                                lambda r: np.max(np.abs(r), initial=0.0) <= 0.1 * tol, len(g),
                                jacobi_inverse(free * diagonal))
        p = np.maximum(0.0, lin)
        for t in 0.5 ** np.arange(50):  # Armijo along the projected arc
            x_new = np.clip(x + t * d, 0.0, 1.0)
            step, lin_new = x_new - x, model.linear_values(x_new)
            # f(x + step) - f(x) as g·step plus each hinge's second-order rest: unlike
            # a difference of two values of f, it shows a decrease far below their rounding
            lin_step = model._product(step)
            rest = np.where((lin >= 0.0) & (lin_new >= 0.0), lin_step ** 2,
                            np.maximum(0.0, lin_new) ** 2 - p ** 2 - 2.0 * p * lin_step)
            slope = float(g @ step)
            if slope < 0.0 and slope + float(model.weight @ rest) <= 1e-4 * slope:
                break
        else:
            log.warning("MAP inference stalled: no step lowers the objective at "
                        "projected gradient %.3g", pg)
            break
        x, lin = x_new, lin_new
    else:
        log.warning("MAP inference hit max_iter=%d", max_iter)
    return MapResult(x=x, objective=model.objective(lin), converged=converged, n_iters=it)


def infer_hinge_posteriors(priors: np.ndarray, groups: GroupTable, weights: HingeWeights,
                           observed: np.ndarray | None = None):
    """Joint PSL-style scores over positions: MAP values for grouped free
    messages, priors otherwise. -> (scores, MapResult)"""
    model = ground_rules(priors, groups, weights, observed=observed)
    result = map_inference(model)
    scores = priors.copy()
    scores[model.messages] = result.x[:len(model.messages)]
    return scores, result


def learn_weights(hinge: HingeConfig, labels: np.ndarray, groups: GroupTable,
                  priors: np.ndarray):
    """Approximate likelihood ascent for the template weights: `hinge.learn_steps`
    steps of size `hinge.learning_rate` from `hinge.weights`.

    The gradient of each template weight is the template's summed hinge value
    at the current MAP state minus its value at the observed state (the gold
    labels, int8 over positions with -1 unlabeled, and the prior where a
    message has none, with hubs imputed as member means); weights are
    projected to >= 0. The model is grounded once and re-weighted at every
    step, and both template sums are taken over its template ids. Returns
    (weights, objective_trace). The start weights are never changed; the
    learned weights name every relation of `groups`, one without a group at
    its start weight, and keep those the start names that `groups` lacks.
    """
    init = hinge.weights
    if not (labels[groups.members] >= 0).any():
        log.warning("no labeled grouped validation message; returning initial weights")
        return init, []
    if hinge.learn_steps <= 0:
        return init, []

    model = ground_rules(priors, groups, init)
    w = init.vector(groups.relations)
    n = len(w)
    truth = np.where(labels >= 0, labels, priors)
    observed_x = np.concatenate([truth[model.messages], groups.means(truth)])
    phi_obs = np.bincount(model.template_id, weights=model.potential_values(observed_x),
                          minlength=n)
    trace = []
    for _ in range(hinge.learn_steps):
        model.weight = w[model.template_id]
        map_state = map_inference(model)
        phi_map = np.bincount(model.template_id, weights=model.potential_values(map_state.x),
                              minlength=n)
        trace.append(map_state.objective - model.objective(model.linear_values(observed_x)))
        w = np.maximum(0.0, w + hinge.learning_rate * (phi_map - phi_obs))
    neg, prior, *per_relation = w.tolist()
    c = dict(zip(groups.relations, per_relation[0::2]))
    d = dict(zip(groups.relations, per_relation[1::2]))
    return HingeWeights(neg, prior, {**init.relation_c, **c}, {**init.relation_d, **d}), trace
