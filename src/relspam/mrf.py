"""Hub-structured binary Markov random field over message and hub variables.

Each group of related messages contributes one latent hub variable plus one
agreement-favoring pairwise factor per member, so a group of n messages costs
n edges rather than n-choose-2. `build_factor_graph` fills the graph's arrays
straight from a `data_model.GroupTable`, whose message variables and hubs the
hinge-loss MRF takes too: per variable its prior log-odds (0 for a hub), per
edge the message variable, the hub variable and its epsilon, which
`edge_epsilons` reads off the edge's relation.
Priors and posteriors are float arrays over chronological positions. A graph
that is not a hub graph, such as a test's random tree, is given as the same
arrays.

Approximate marginals come from synchronous loopy belief propagation in
log-odds form, one kernel over the arrays, `loopy_bp_batch`, that runs a
batch of rows of edge epsilons at once: a message is one number per edge
direction, m_a->b = 2 atanh((1 - 2e) tanh((h_a - m_b->a) / 2)), where the
field h is a variable's prior log-odds plus its incoming messages, and each
update keeps the share `DAMPING` of the message it replaces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data_model import GroupTable

log = logging.getLogger(__name__)

PRIOR_CLAMP = 1e-6
DAMPING = 0.5  # BP keeps this share of each message's previous value


@dataclass(eq=False)
class FactorGraph:
    """Binary variables joined by agreement-favoring pairwise factors, as arrays.

    The first len(messages) variables are messages, variable i the message at
    chronological position messages[i]; the rest are hubs. h0[i] is variable
    i's prior log-odds log(P(spam) / P(ham)), 0 for a hub. Factor f joins
    variables factors[f, 0] and factors[f, 1] with the table [[1-e, e], [e, 1-e]],
    e = epsilon[f].
    """

    messages: np.ndarray  # (n_messages,) positions
    h0: np.ndarray  # (n_variables,)
    factors: np.ndarray  # (n_factors, 2) variable indices
    epsilon: np.ndarray  # (n_factors,)


def epsilon_of(epsilons, relation: str) -> float:
    """A relation's epsilon in `epsilons`, one shared value or a per-relation
    dict (0.1 for a relation the dict leaves out)."""
    return epsilons.get(relation, 0.1) if isinstance(epsilons, dict) else epsilons


def edge_epsilons(groups: GroupTable, epsilons) -> np.ndarray:
    """Per-edge epsilons of `groups` from `epsilons` (`epsilon_of`), each in
    (0, 0.5) as the config's check leaves them."""
    return np.array([epsilon_of(epsilons, r) for r in groups.relations],
                    dtype=float)[groups.relation]


def build_factor_graph(priors: np.ndarray, groups: GroupTable, epsilons) -> FactorGraph:
    """One message variable per grouped message, in position order, one hub
    variable per group, one pairwise factor per (group, member). `priors` is
    a float array over positions. Ungrouped messages are excluded: their
    posterior is their prior by definition.
    """
    messages, variable = groups.variables(priors)
    raw = priors[messages]
    p = np.clip(raw, PRIOR_CLAMP, 1.0 - PRIOR_CLAMP)
    n_clamped = int(np.count_nonzero(p != raw))
    if n_clamped:
        log.debug("clamped %d priors into (0,1)", n_clamped)
    h0 = np.concatenate([np.log(p) - np.log(1.0 - p), np.zeros(len(groups))])  # hubs: 0
    factors = np.column_stack([variable[groups.members], len(messages) + groups.group])
    return FactorGraph(messages, h0, factors, edge_epsilons(groups, epsilons))


@dataclass
class BPResult:
    marginals: np.ndarray  # spam marginal per variable
    converged: bool
    n_iters: int


def loopy_bp_batch(graph: FactorGraph, eps: np.ndarray, max_iters: int = 100,
                   tol: float = 1e-6) -> tuple:
    """`loopy_bp` on `graph` once per row of edge epsilons `eps` (B x
    n_factors, as `edge_epsilons` gives a row), in one batched run, with one
    log-odds message per edge direction and row.

    Every row stops at its own iteration, and no sum mixes rows, so a row of a
    batch equals the same row run alone bit for bit, but is not logged.
    Returns the spam marginals (B x n_variables, in variable order), the
    iterations and the convergence flags.
    """
    n_rows, n_edges = eps.shape
    h0 = graph.h0
    n_vars = len(h0)
    if n_edges == 0:
        return (np.broadcast_to((1.0 + np.tanh(h0 / 2)) / 2, (n_rows, n_vars)),
                np.zeros(n_rows, dtype=np.int64), np.ones(n_rows, dtype=bool))

    # message d runs src[d] -> dst[d]: first every edge's var_b -> var_a, then
    # every edge's var_a -> var_b, so the reverse of d is n_edges places away
    src, dst = graph.factors[:, ::-1].T.ravel(), graph.factors.T.ravel()
    # the table [[1-e, e], [e, 1-e]] scales tanh(x/2) by 1-2e
    gain = np.tile(1.0 - 2.0 * eps, 2)

    def fields(m):
        # h0 plus the incoming messages in message order; row r owns slots r*n_vars onwards
        idx = (np.arange(len(m))[:, None] * n_vars + dst).ravel()
        incoming = np.bincount(idx, weights=m.ravel(), minlength=len(m) * n_vars)
        return h0 + incoming.reshape(len(m), n_vars)

    m = np.zeros((n_rows, 2 * n_edges))
    final = np.empty_like(m)
    n_iters = np.full(n_rows, max_iters, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)  # the rows still iterating
    for it in range(1, max_iters + 1):
        # the sender's field without the reverse message, through the table
        cavity = fields(m)[:, src] - np.roll(m, n_edges, axis=1)
        new = 2.0 * np.arctanh(gain * np.tanh(cavity / 2))
        new = DAMPING * m + (1.0 - DAMPING) * new
        done = np.abs(new - m).max(axis=1) < tol
        m = new
        if done.any():
            stop = rows[done]
            final[stop] = m[done]
            n_iters[stop] = it
            converged[stop] = True
            rows, m, gain = rows[~done], m[~done], gain[~done]
            if not len(rows):
                break
    final[rows] = m
    # P(spam) = (1 + tanh(h/2)) / 2, where 1 / (1 + exp(-h)) overflows on a large hub's field
    return (1.0 + np.tanh(fields(final) / 2)) / 2, n_iters, converged


def loopy_bp(graph: FactorGraph, max_iters: int = 100, tol: float = 1e-6) -> BPResult:
    """Synchronous damped belief propagation; exact on trees. BP has converged
    once an iteration moves no message by `tol` or more in log-odds; if it has
    not, that is logged, and the current beliefs return with converged=False.
    """
    spam, n_iters, converged = loopy_bp_batch(graph, graph.epsilon[None, :], max_iters, tol)
    if not converged[0]:
        log.warning("loopy BP did not converge in %d iterations", max_iters)
    return BPResult(marginals=spam[0], converged=bool(converged[0]), n_iters=int(n_iters[0]))


def infer_posteriors(priors: np.ndarray, groups: GroupTable, epsilons, max_iters: int = 100,
                     tol: float = 1e-6) -> tuple:
    """Full inference path: build the hub graph with `epsilons` (as
    `edge_epsilons` takes them), run BP, and merge posteriors.
    -> (scores over positions, BPResult)

    Messages not in any group keep their prior.
    """
    graph = build_factor_graph(priors, groups, epsilons)
    result = loopy_bp(graph, max_iters=max_iters, tol=tol)
    scores = priors.copy()
    scores[graph.messages] = result.marginals[:len(graph.messages)]
    return scores, result
