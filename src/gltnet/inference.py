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
from .model import ActivationHistory

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
    eigvals = np.linalg.eigvalsh(info)
    min_eig = float(eigvals[0])
    sigma = None
    if np.isfinite(min_eig) and min_eig > 0.0:
        # an exactly singular matrix can still get a tiny positive smallest
        # eigenvalue from eigvalsh; inv then finds the zero pivot
        try:
            sigma = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            pass
    if sigma is None:
        return CovarianceResult(
            node=node_data.node,
            sigma=None,
            valid=False,
            min_eigenvalue=min_eig,
            message="observed information is singular or indefinite",
        )
    sigma = 0.5 * (sigma + sigma.T)
    return CovarianceResult(
        node=node_data.node,
        sigma=sigma,
        valid=True,
        min_eigenvalue=min_eig,
    )


def _require_valid(covariance: CovarianceResult):
    if not covariance.valid:
        raise InferenceError(
            f"invalid covariance for node {covariance.node}: {covariance.message}"
        )


def weight_intervals(fit: NodeFitResult, covariance: CovarianceResult, level: float = 0.95) -> list:
    """Wald interval per parent weight, truncated to the parameter support.

    Callers should treat the output as unreliable when ``fit.at_boundary``;
    the normal approximation assumes an interior estimate.
    """
    _require_valid(covariance)
    if not (0.0 < level < 1.0):
        raise InferenceError(f"level must be in (0, 1), got {level}")
    z = float(special.ndtri(0.5 * (1.0 + level)))
    se = np.sqrt(np.clip(np.diag(covariance.sigma), 0.0, None))
    h = fit.spec.support_bound
    out = []
    for b, s in zip(fit.weights, se):
        out.append(
            Interval(
                lower=float(max(b - z * s, 0.0)),
                upper=float(min(b + z * s, h)),
                level=level,
            )
        )
    return out


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

    The point estimate is the transition probability at the fitted weights;
    its gradient is computed analytically from the threshold density.  When
    the node has no newly active parent at t-1, the probability is an exact
    zero and the interval has zero width.

    Returns ``(point_estimate, Interval)``.
    """
    _require_valid(covariance)
    if not isinstance(history, ActivationHistory):
        history = ActivationHistory(history)
    if t < 1 or t > len(history):
        raise InferenceError(f"time {t} outside the history (length {len(history)})")
    v = fit.node
    a_prev = history.active(t - 1)
    if v in a_prev:
        raise InferenceError(f"node {v} is already active at time {t - 1}")
    if not (set(fit.parents) & history.newly_active(t - 1)):
        return 0.0, Interval(0.0, 0.0, level)
    zc = np.array([1.0 if u in a_prev else 0.0 for u in fit.parents])
    zp = np.array([1.0 if u in history.active(t - 2) else 0.0 for u in fit.parents])
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
    se = np.sqrt(max(var, 0.0))
    z = float(special.ndtri(0.5 * (1.0 + level)))
    interval = Interval(
        lower=float(np.clip(point - z * se, 0.0, 1.0)),
        upper=float(np.clip(point + z * se, 0.0, 1.0)),
        level=level,
    )
    return point, interval
