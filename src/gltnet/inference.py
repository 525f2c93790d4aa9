"""Observed-information covariance, Wald intervals, and weight tests.

The covariance of a fitted node's weights is the inverse negative Hessian
of its log-likelihood at the estimate.  Intervals and tests use the normal
limit; estimates sitting on the truncation boundary invalidate that
approximation, so callers should consult ``NodeFitResult.at_boundary``
before trusting the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .estimation import NodeFitResult
from .likelihood import NodeData, node_hessian
from .model import validate_trace

__all__ = [
    "CovarianceResult",
    "Interval",
    "InferenceError",
    "node_covariance",
    "weight_intervals",
    "weight_difference_test",
    "activation_probability_interval",
]


class InferenceError(ValueError):
    """Inference requested from an invalid or degenerate fit."""


@dataclass
class CovarianceResult:
    node: int
    sigma: np.ndarray
    valid: bool
    min_eigenvalue: float
    message: str = ""


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise InferenceError(f"level must be in (0, 1), got {self.level}")
        if self.lower > self.upper:
            raise InferenceError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, x) -> bool:
        return self.lower <= x <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower


def node_covariance(node_data: NodeData, theta_hat, spec) -> CovarianceResult:
    """Inverse observed information at theta_hat.

    Reported invalid (with the offending smallest eigenvalue) when the
    information matrix is not positive definite.
    """
    info = -node_hessian(node_data, theta_hat, spec)
    min_eig = float(np.linalg.eigvalsh(info)[0])
    sigma = None
    if np.isfinite(min_eig) and min_eig > 0.0:
        # an exactly singular matrix can still get a tiny positive smallest
        # eigenvalue from eigvalsh; inv then finds the zero pivot
        try:
            inverse = np.linalg.inv(info)
            sigma = 0.5 * (inverse + inverse.T)
        except np.linalg.LinAlgError:
            pass
    valid = sigma is not None
    message = "" if valid else "observed information is singular or indefinite"
    return CovarianceResult(node_data.node, sigma, valid, min_eig, message)


def _covariances(datasets, fits) -> dict:
    """``{v: node_covariance(datasets[v], fit.weights, fit.spec)}`` over the
    estimated ``fits``, in their order."""
    return {v: node_covariance(datasets[v], fit.weights, fit.spec) for v, fit in fits.items() if fit.estimated}


def _require_valid(covariance: CovarianceResult):
    if not covariance.valid:
        raise InferenceError(
            f"invalid covariance for node {covariance.node}: {covariance.message}"
        )


def _wald(point, se, level: float, upper: float):
    """Normal-limit bounds ``point -/+ z * se`` at ``level``, clipped to ``[0, upper]``."""
    if not (0.0 < level < 1.0):
        raise InferenceError(f"level must be in (0, 1), got {level}")
    z = float(special.ndtri(0.5 * (1.0 + level)))
    return np.clip(point - z * se, 0.0, upper), np.clip(point + z * se, 0.0, upper)


def weight_intervals(fit: NodeFitResult, covariance: CovarianceResult, level: float = 0.95) -> list:
    """Wald interval per parent weight, truncated to the parameter support.

    Callers should treat the output as unreliable when ``fit.at_boundary``;
    the normal approximation assumes an interior estimate.
    """
    _require_valid(covariance)
    se = np.sqrt(np.clip(np.diag(covariance.sigma), 0.0, None))
    lower, upper = _wald(fit.weights, se, level, fit.spec.support_bound)
    return [Interval(float(a), float(b), level) for a, b in zip(lower, upper)]


def weight_difference_test(fit: NodeFitResult, covariance: CovarianceResult, u: int, w: int):
    """Two-sided z-test of equal influence of parents u and w on the node.

    Returns ``(z, p_value)``.
    """
    _require_valid(covariance)
    try:
        i = fit.parents.index(u)
        j = fit.parents.index(w)
    except ValueError as exc:
        raise InferenceError(f"{exc}: not a parent of node {fit.node}") from exc
    sigma = covariance.sigma
    var = float(sigma[i, i] + sigma[j, j] - 2.0 * sigma[i, j])
    if var <= 0.0:
        raise InferenceError(
            f"nonpositive variance estimate {var} for the weight difference"
        )
    z = float((fit.weights[i] - fit.weights[j]) / np.sqrt(var))
    p = float(special.erfc(abs(z) / np.sqrt(2.0)))
    return z, p


def activation_probability_interval(
    fit: NodeFitResult,
    covariance: CovarianceResult,
    graph,
    history,
    t: int,
    level: float = 0.95,
):
    """Delta-method interval for the node's next-step activation probability.

    ``history`` is a feasible trace on ``graph`` covering steps 0..t-1.  The
    point estimate is the transition probability at the fitted weights; its
    gradient is computed analytically from the threshold density.  When the
    node has no newly active parent at t-1, the probability is an exact zero
    and the interval has zero width.

    Returns ``(point_estimate, Interval)``.
    """
    _require_valid(covariance)
    history = validate_trace(graph, history)
    if t < 1 or t > len(history):
        raise InferenceError(f"time {t} outside the history (length {len(history)})")
    v = fit.node
    parents = graph.parent_list(v)
    if tuple(fit.parents) != parents:
        raise InferenceError(f"fit parents {tuple(fit.parents)} are not node {v}'s parents {parents}")
    a_prev = history.active(t - 1)
    if v in a_prev:
        raise InferenceError(f"node {v} is already active at time {t - 1}")
    if not (set(parents) & history.steps[t - 1]):
        return 0.0, Interval(0.0, 0.0, level)
    a_prev2 = history.active(t - 2)
    zc = np.array([1.0 if u in a_prev else 0.0 for u in parents])
    zp = np.array([1.0 if u in a_prev2 else 0.0 for u in parents])
    spec = fit.spec
    theta = fit.weights
    x = float(zc @ theta)
    y = float(zp @ theta)
    sf_y = spec.sf(y)
    if sf_y <= 0.0:
        raise InferenceError("conditioning event has probability zero")
    point = min(1.0, spec.interval_prob(x, y) / sf_y)
    dg_dx = spec.density(x) / sf_y
    dg_dy = -spec.density(y) * spec.sf(x) / sf_y**2
    grad = dg_dx * zc + dg_dy * zp
    var = float(grad @ covariance.sigma @ grad)
    lower, upper = _wald(point, np.sqrt(max(var, 0.0)), level, 1.0)
    return point, Interval(float(lower), float(upper), level)
