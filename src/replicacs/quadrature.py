"""Gauss-Hermite rule and prior nodes for the 1RSB grid.

All Gaussian measures are real standard normals: the within-block
integrals are realized as sums over probabilists' Gauss-Hermite nodes, and
real-part operators inside integrands reduce to plain products.  A complex
circular-Gaussian variant would halve per-axis variances and is not
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .priors import SignalPrior

#: 1-D node count used by the solvers unless configured otherwise.
DEFAULT_ORDER = 40


@dataclass(frozen=True)
class GaussHermiteRule:
    """Probabilists' Gauss-Hermite rule: sum(w_i f(z_i)) ~ E[f(Z)], Z ~ N(0,1).

    Weights sum to one and nodes are symmetric about zero; an order-n rule
    integrates polynomials up to degree 2n-1 exactly.
    """

    order: int
    nodes: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)


@lru_cache(maxsize=64)
def gauss_hermite_rule(order: int = DEFAULT_ORDER) -> GaussHermiteRule:
    """Build the probabilists' rule from the physicists' hermgauss nodes.

    Rules are immutable after construction, so instances are cached and
    shared between callers.
    """
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    x, w = np.polynomial.hermite.hermgauss(order)
    w = w / w.sum()
    return GaussHermiteRule(order=order, nodes=x * np.sqrt(2.0), weights=w)


def prior_nodes(prior: SignalPrior, rule: GaussHermiteRule) -> tuple[np.ndarray, np.ndarray]:
    """Atom-plus-Gaussian node/weight arrays for vectorized prior averages.

    First entry is the atom at zero with mass 1-rho; the rest are the active
    branch nodes carrying rho-scaled Gauss-Hermite weights.
    """
    scale = np.sqrt(prior.active_variance)
    nodes = np.concatenate([[0.0], scale * rule.nodes])
    weights = np.concatenate([[1.0 - prior.rho], prior.rho * rule.weights])
    return nodes, weights
