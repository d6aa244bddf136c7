"""Hub-structured binary Markov random field over message and hub variables.

Each group of related messages contributes one latent hub variable plus one
agreement-favoring pairwise factor per member, so a group of n messages costs
n edges rather than n-choose-2. `build_factor_graph` fills the graph's arrays
straight from a `data_model.GroupTable`, the (group, member) edge form the
hinge-loss MRF grounds from too: per variable a (phi_ham, phi_spam) row, per
edge the message variable, the hub variable, epsilon and the relation code.
Priors and posteriors are float arrays over chronological positions. A graph
that is not a hub graph, such as a test's random tree, is given as the same
arrays.

Approximate marginals come from damped synchronous loopy belief propagation,
one kernel over the arrays that runs a batch of epsilon settings at once;
small graphs can be checked against exact enumeration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import ConfigError, DataError, GroupTable, is_number

log = logging.getLogger(__name__)

PRIOR_CLAMP = 1e-6


@dataclass(eq=False)
class FactorGraph:
    """Binary variables joined by agreement-favoring pairwise factors, as arrays.

    The first len(messages) variables are messages, variable i the message at
    chronological position messages[i]; the rest are hubs. phi[i] is variable
    i's (phi_ham, phi_spam), both positive. Factor f joins variables
    factors[f, 0] and factors[f, 1] with the table [[1-e, e], [e, 1-e]],
    e = epsilon[f], and belongs to relation relations[relation[f]].
    """

    messages: np.ndarray  # (n_messages,) positions
    phi: np.ndarray  # (n_variables, 2)
    factors: np.ndarray  # (n_factors, 2) variable indices
    epsilon: np.ndarray  # (n_factors,)
    relation: np.ndarray  # (n_factors,)
    relations: list

    @property
    def n_messages(self) -> int:
        return len(self.messages)


def _edge_epsilons(relations: list, relation: np.ndarray, epsilons) -> np.ndarray:
    """Per-edge epsilons from one shared value or a per-relation dict (0.1 for
    a relation the dict leaves out), checked for every relation present."""
    if is_number(epsilons):
        per_relation = [float(epsilons)] * len(relations)
    elif isinstance(epsilons, dict):
        per_relation = [epsilons.get(r, 0.1) for r in relations]
    else:
        raise ConfigError(f"epsilons must be a number or an object mapping relations to "
                          f"numbers, got {epsilons!r}")
    for r, eps in zip(relations, per_relation):
        if not (is_number(eps) and 0.0 < eps < 0.5):
            raise ConfigError(f"epsilon for relation {r!r} must lie in (0, 0.5), got {eps!r}")
    return np.array(per_relation, dtype=float)[relation]


def build_factor_graph(priors: np.ndarray, groups: GroupTable, epsilons) -> FactorGraph:
    """One message variable per grouped message, in position order, one hub
    variable per group, one pairwise factor per (group, member). `priors` is
    a float array over positions. Ungrouped messages are excluded: their
    posterior is their prior by definition.
    """
    grouped = np.unique(groups.members)
    raw = priors[grouped]
    missing = grouped[np.isnan(raw)]
    if len(missing):
        raise DataError(f"{len(missing)} grouped messages lack priors "
                        f"(first: position {missing[0]})")
    p = np.clip(raw, PRIOR_CLAMP, 1.0 - PRIOR_CLAMP)
    n_clamped = int(np.count_nonzero(p != raw))
    if n_clamped:
        log.debug("clamped %d priors into (0,1)", n_clamped)
    n_messages = len(grouped)
    phi = np.full((n_messages + len(groups), 2), 0.5)  # hubs are uninformative
    phi[:n_messages, 0] = 1.0 - p
    phi[:n_messages, 1] = p
    var_a = np.searchsorted(grouped, groups.members)
    return FactorGraph(grouped, phi, np.column_stack([var_a, n_messages + groups.group]),
                       _edge_epsilons(groups.relations, groups.relation, epsilons),
                       groups.relation, groups.relations)


@dataclass
class BPResult:
    marginals: np.ndarray  # spam marginal per variable
    converged: bool
    n_iters: int


def _bp_rows(graph: FactorGraph, eps, max_iters: int, damping: float, tol: float) -> tuple:
    """Synchronous damped BP on `graph` for each row of `eps` (B x n_edges).

    Every row stops at its own iteration, and no sum mixes rows, so a row of a
    batch equals the same row run alone bit for bit. Returns the spam
    marginals (B x n_vars), the iterations and the convergence flags.
    """
    n_rows, n_edges = eps.shape
    phi = graph.phi
    n_vars = len(phi)
    if n_edges == 0:
        marginals = np.broadcast_to(phi[:, 1] / (phi[:, 0] + phi[:, 1]), (n_rows, n_vars))
        return marginals, np.zeros(n_rows, dtype=np.int64), np.ones(n_rows, dtype=bool)

    var_a, var_b = np.ascontiguousarray(graph.factors.T)
    log_phi = np.log(phi)
    # A belief sums, in log space so large hubs cannot underflow the product,
    # the variable's log-potential and then its incoming log-messages in edge
    # order, first those into var_a and then those into var_b. bincount adds
    # in input order, so these are the slots of one row's terms in that order.
    slots = (np.concatenate([np.arange(n_vars), var_a, var_b])[:, None] * 2
             + np.arange(2)).ravel()

    def beliefs(m_ab, m_ba):
        k = len(m_ab)
        terms = np.concatenate([np.broadcast_to(log_phi, (k, n_vars, 2)),
                                np.log(m_ba), np.log(m_ab)], axis=1)
        idx = slots if k == 1 else (np.arange(k)[:, None] * (2 * n_vars) + slots).ravel()
        bl = np.bincount(idx, weights=terms.ravel(), minlength=2 * n_vars * k)
        bl = bl.reshape(k, n_vars, 2)
        bl -= bl.max(axis=2, keepdims=True)
        bel = np.exp(bl)
        return bel / bel.sum(axis=2, keepdims=True)

    # msg_ab[r, f] = message var_a -> var_b of edge f in row r, msg_ba the reverse
    msg_ab = np.full((n_rows, n_edges, 2), 0.5)
    msg_ba = np.full((n_rows, n_edges, 2), 0.5)
    final_ab, final_ba = msg_ab.copy(), msg_ba.copy()
    n_iters = np.full(n_rows, max_iters, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)  # the rows still iterating
    stay = 1.0 - eps
    for it in range(1, max_iters + 1):
        bel = beliefs(msg_ab, msg_ba)
        out_a = bel[:, var_a] / msg_ba  # cavity: belief at a without f's incoming
        out_b = bel[:, var_b] / msg_ab
        # symmetric table: out(x) -> (1-e)*out(x) + e*out(1-x)
        new_ab = np.empty_like(msg_ab)
        new_ab[..., 0] = stay * out_a[..., 0] + eps * out_a[..., 1]
        new_ab[..., 1] = eps * out_a[..., 0] + stay * out_a[..., 1]
        new_ba = np.empty_like(msg_ba)
        new_ba[..., 0] = stay * out_b[..., 0] + eps * out_b[..., 1]
        new_ba[..., 1] = eps * out_b[..., 0] + stay * out_b[..., 1]
        new_ab /= new_ab.sum(axis=2, keepdims=True)
        new_ba /= new_ba.sum(axis=2, keepdims=True)
        new_ab = damping * msg_ab + (1.0 - damping) * new_ab
        new_ba = damping * msg_ba + (1.0 - damping) * new_ba
        delta = np.maximum(np.abs(new_ab - msg_ab).max(axis=(1, 2)),
                           np.abs(new_ba - msg_ba).max(axis=(1, 2)))
        msg_ab, msg_ba = new_ab, new_ba
        done = delta < tol
        if done.any():
            stop = rows[done]
            final_ab[stop], final_ba[stop] = msg_ab[done], msg_ba[done]
            n_iters[stop] = it
            converged[stop] = True
            keep = ~done
            rows, msg_ab, msg_ba = rows[keep], msg_ab[keep], msg_ba[keep]
            eps, stay = eps[keep], stay[keep]
            if not len(rows):
                break
    final_ab[rows], final_ba[rows] = msg_ab, msg_ba
    for _ in rows:
        log.warning("loopy BP did not converge in %d iterations", max_iters)
    return beliefs(final_ab, final_ba)[..., 1], n_iters, converged


def loopy_bp(graph: FactorGraph, max_iters: int = 100, damping: float = 0.5,
             tol: float = 1e-6) -> BPResult:
    """Synchronous damped belief propagation; exact on trees.

    Non-convergence is not an error: the current beliefs are returned with
    converged=False.
    """
    spam, n_iters, converged = _bp_rows(graph, graph.epsilon[None, :], max_iters, damping, tol)
    return BPResult(marginals=spam[0], converged=bool(converged[0]), n_iters=int(n_iters[0]))


def loopy_bp_batch(graph: FactorGraph, epsilons: list, max_iters: int = 100,
                   damping: float = 0.5, tol: float = 1e-6) -> tuple:
    """`loopy_bp` once per entry of `epsilons`, in one batched run on a graph
    from `build_factor_graph`.

    Each entry is a shared value or a per-relation dict, as
    `build_factor_graph` takes. Row b equals `loopy_bp` on the graph built with
    epsilons[b], bit for bit. Returns (spam marginals as a B x n_variables
    array in variable order, iterations, convergence flags).
    """
    rows = np.array([_edge_epsilons(graph.relations, graph.relation, e) for e in epsilons],
                    dtype=float)
    return _bp_rows(graph, rows.reshape(len(epsilons), len(graph.factors)), max_iters, damping, tol)


def exact_marginals(graph: FactorGraph) -> np.ndarray:
    """Brute-force spam marginals by enumerating every assignment. Test oracle only."""
    n = len(graph.phi)
    if n > 20:
        raise DataError(f"exact enumeration capped at 20 variables, got {n}")
    if n == 0:
        return np.zeros(0)
    states = ((np.arange(2 ** n, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    w = np.ones(2 ** n)
    for i, (ham, spam) in enumerate(graph.phi):
        w *= np.where(states[:, i] == 1, spam, ham)
    for (a, b), e in zip(graph.factors, graph.epsilon):
        w *= np.where(states[:, a] == states[:, b], 1.0 - e, e)
    z = w.sum()
    if z <= 0:
        raise DataError("partition function vanished; check potentials")
    return np.array([w[states[:, i] == 1].sum() / z for i in range(n)])


def infer_posteriors(priors: np.ndarray, groups: GroupTable, epsilons=0.1, max_iters: int = 100,
                     damping: float = 0.5, tol: float = 1e-6) -> tuple:
    """Full inference path: build the hub graph, run BP, and merge posteriors.
    -> (scores over positions, BPResult)

    Messages not in any group keep their prior.
    """
    graph = build_factor_graph(priors, groups, epsilons)
    result = loopy_bp(graph, max_iters=max_iters, damping=damping, tol=tol)
    scores = priors.copy()
    scores[graph.messages] = result.marginals[:graph.n_messages]
    return scores, result
