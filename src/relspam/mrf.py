"""Hub-structured binary Markov random field over message and hub variables.

Each group of related messages contributes one latent hub variable plus one
agreement-favoring pairwise factor per member, so a group of n messages costs
n edges rather than n-choose-2. Approximate marginals come from damped
synchronous loopy belief propagation; small graphs can be checked against
exact enumeration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data_model import ConfigError, DataError

log = logging.getLogger(__name__)

PRIOR_CLAMP = 1e-6


@dataclass(frozen=True)
class VariableNode:
    kind: str  # "message" or "hub"
    id: str
    phi: tuple  # (phi_ham, phi_spam), both positive


@dataclass(frozen=True)
class PairwiseFactor:
    var_a: int
    var_b: int
    epsilon: float  # table [[1-e, e], [e, 1-e]], agreement-favoring for e < 0.5

    def table(self) -> list:
        e = self.epsilon
        return [[1.0 - e, e], [e, 1.0 - e]]


@dataclass
class FactorGraph:
    variables: list = field(default_factory=list)
    factors: list = field(default_factory=list)

    def var_index(self) -> dict:
        return {v.id: i for i, v in enumerate(self.variables)}

    def dump(self) -> str:
        """Human-readable dump for debugging."""
        lines = []
        for v in self.variables:
            lines.append(f"var {v.kind} {v.id} phi=({v.phi[0]:.6g},{v.phi[1]:.6g})")
        for f in self.factors:
            a, b = self.variables[f.var_a], self.variables[f.var_b]
            lines.append(f"factor {a.id} -- {b.id} eps={f.epsilon:.6g}")
        return "\n".join(lines)


def hub_id(relation: str, key: str) -> str:
    return f"hub:{relation}:{key}"


def _check_epsilon(eps: float, relation: str):
    if not (0.0 < eps < 0.5):
        raise ConfigError(f"epsilon for relation {relation!r} must lie in (0, 0.5), got {eps}")


def clamp_prior(p: float) -> float:
    return min(max(p, PRIOR_CLAMP), 1.0 - PRIOR_CLAMP)


def build_factor_graph(priors: dict, groups: list, epsilons) -> FactorGraph:
    """One message variable per grouped message, one hub variable per group,
    one pairwise factor per (group, member). Ungrouped messages are excluded:
    their posterior is their prior by definition.
    """
    if isinstance(epsilons, (int, float)):
        epsilons = {g.relation: float(epsilons) for g in groups}
    grouped_ids = sorted({mid for g in groups for mid in g.member_ids})
    missing = [mid for mid in grouped_ids if mid not in priors]
    if missing:
        raise DataError(f"{len(missing)} grouped messages lack priors (first: {missing[0]})")

    graph = FactorGraph()
    index = {}
    n_clamped = 0
    for mid in grouped_ids:
        raw = priors[mid]
        p = clamp_prior(raw)
        n_clamped += p != raw
        index[mid] = len(graph.variables)
        graph.variables.append(VariableNode(kind="message", id=mid, phi=(1.0 - p, p)))
    if n_clamped:
        log.debug("clamped %d priors into (0,1)", n_clamped)
    for g in groups:
        eps = epsilons.get(g.relation, 0.1) if isinstance(epsilons, dict) else 0.1
        _check_epsilon(eps, g.relation)
        h_idx = len(graph.variables)
        graph.variables.append(VariableNode(kind="hub", id=hub_id(g.relation, g.key), phi=(0.5, 0.5)))
        for mid in g.member_ids:
            graph.factors.append(PairwiseFactor(var_a=index[mid], var_b=h_idx, epsilon=eps))
    return graph


@dataclass
class BPResult:
    marginals: dict  # variable id -> spam marginal
    converged: bool
    n_iters: int


def loopy_bp(graph: FactorGraph, max_iters: int = 100, damping: float = 0.5,
             tol: float = 1e-6) -> BPResult:
    """Synchronous damped belief propagation; exact on trees.

    Non-convergence is not an error: the current beliefs are returned with
    converged=False.
    """
    n_vars = len(graph.variables)
    n_factors = len(graph.factors)
    if n_factors == 0:
        marginals = {v.id: v.phi[1] / (v.phi[0] + v.phi[1]) for v in graph.variables}
        return BPResult(marginals=marginals, converged=True, n_iters=0)

    phi = np.array([v.phi for v in graph.variables])  # (n_vars, 2)
    a_idx = np.array([f.var_a for f in graph.factors])
    b_idx = np.array([f.var_b for f in graph.factors])
    eps = np.array([f.epsilon for f in graph.factors])

    # msg_ab[f] = message var_a -> var_b, msg_ba[f] = var_b -> var_a
    msg_ab = np.full((n_factors, 2), 0.5)
    msg_ba = np.full((n_factors, 2), 0.5)

    log_phi = np.log(phi)

    def beliefs(m_ab, m_ba):
        # accumulate in log space so large hubs cannot underflow the product
        bl = log_phi.copy()
        np.add.at(bl, a_idx, np.log(m_ba))
        np.add.at(bl, b_idx, np.log(m_ab))
        bl -= bl.max(axis=1, keepdims=True)
        bel = np.exp(bl)
        return bel / bel.sum(axis=1, keepdims=True)

    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        bel = beliefs(msg_ab, msg_ba)
        out_a = bel[a_idx] / msg_ba  # cavity: belief at a without f's incoming
        out_b = bel[b_idx] / msg_ab
        # symmetric table: out(x) -> (1-e)*out(x) + e*out(1-x)
        new_ab = np.empty_like(msg_ab)
        new_ab[:, 0] = (1.0 - eps) * out_a[:, 0] + eps * out_a[:, 1]
        new_ab[:, 1] = eps * out_a[:, 0] + (1.0 - eps) * out_a[:, 1]
        new_ba = np.empty_like(msg_ba)
        new_ba[:, 0] = (1.0 - eps) * out_b[:, 0] + eps * out_b[:, 1]
        new_ba[:, 1] = eps * out_b[:, 0] + (1.0 - eps) * out_b[:, 1]
        new_ab /= new_ab.sum(axis=1, keepdims=True)
        new_ba /= new_ba.sum(axis=1, keepdims=True)
        new_ab = damping * msg_ab + (1.0 - damping) * new_ab
        new_ba = damping * msg_ba + (1.0 - damping) * new_ba
        delta = max(np.abs(new_ab - msg_ab).max(), np.abs(new_ba - msg_ba).max())
        msg_ab, msg_ba = new_ab, new_ba
        if delta < tol:
            converged = True
            break
    if not converged:
        log.warning("loopy BP did not converge in %d iterations", max_iters)

    bel = beliefs(msg_ab, msg_ba)
    marginals = {v.id: float(bel[i, 1]) for i, v in enumerate(graph.variables)}
    return BPResult(marginals=marginals, converged=converged, n_iters=it)


def exact_marginals(graph: FactorGraph) -> dict:
    """Brute-force marginals by enumerating every assignment. Test oracle only."""
    n = len(graph.variables)
    if n > 20:
        raise DataError(f"exact enumeration capped at 20 variables, got {n}")
    if n == 0:
        return {}
    states = ((np.arange(2 ** n, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    w = np.ones(2 ** n)
    for i, v in enumerate(graph.variables):
        w *= np.where(states[:, i] == 1, v.phi[1], v.phi[0])
    for f in graph.factors:
        agree = states[:, f.var_a] == states[:, f.var_b]
        w *= np.where(agree, 1.0 - f.epsilon, f.epsilon)
    z = w.sum()
    if z <= 0:
        raise DataError("partition function vanished; check potentials")
    return {v.id: float(w[states[:, i] == 1].sum() / z) for i, v in enumerate(graph.variables)}


@dataclass
class JointResult:
    scores: dict  # message id -> posterior spam probability
    hub_scores: dict
    converged: bool
    n_iters: int
    n_variables: int
    n_factors: int


def infer_posteriors(priors: dict, groups: list, epsilons=0.1, max_iters: int = 100,
                     damping: float = 0.5, tol: float = 1e-6) -> JointResult:
    """Full inference path: build the hub graph, run BP, and merge posteriors.

    Messages not in any group keep their prior.
    """
    graph = build_factor_graph(priors, groups, epsilons)
    result = loopy_bp(graph, max_iters=max_iters, damping=damping, tol=tol)
    scores = dict(priors)
    hub_scores = {}
    for v in graph.variables:
        if v.kind == "message":
            scores[v.id] = result.marginals[v.id]
        else:
            hub_scores[v.id] = result.marginals[v.id]
    return JointResult(scores=scores, hub_scores=hub_scores, converged=result.converged,
                       n_iters=result.n_iters, n_variables=len(graph.variables),
                       n_factors=len(graph.factors))
