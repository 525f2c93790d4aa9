"""Node threshold distributions and the analytic quantities built on them.

Three families are supported: uniform on [0, 1], unit-rate exponential, and
beta(alpha, beta) on [0, 1].  Each spec exposes the cdf, survival function,
density, density derivative, inverse cdf, the support bound h, and two
analytic flags used downstream:

* ``log_concave_density`` -- the per-node log-likelihood is concave exactly
  when this holds (uniform: yes; exponential: yes; beta: alpha >= 1 and
  beta >= 1);
* ``concave_cdf`` -- the sufficient condition for a submodular influence
  function (uniform: yes; exponential: yes; beta: alpha <= 1 and beta >= 1).

Survival-function paths avoid the 1 - F cancellation as F -> 1, and
``log_interval_prob`` gives a stable log(F(x) - F(y)).

The public methods check their arguments (thresholds are nonnegative, so a
negative argument raises ``ValueError``, as does an interval (y, x] with
x < y) and wrap an unchecked array form,
which holds the only family branch for its quantity.  The likelihood kernel
calls ``_interval``, ``_log_interval``, ``_sf``, ``_log_sf``, ``_density`` and
``_density_derivative`` directly, and trace simulation calls ``_cdf``: their
arguments are sums of nonnegative weights over active parents, so they
cannot be negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

__all__ = [
    "ThresholdSpec",
    "make_uniform",
    "make_exponential_unit",
    "make_beta",
    "spec_to_dict",
    "spec_from_dict",
]

# differences below this are treated as numerically zero on the generic
# (incomplete-beta) path, which is only trustworthy to ~1e-15 absolute
_BETA_DIFF_TOL = 1e-15
_LOG_FLOOR = 1e-300


def _check_nonnegative(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("threshold arguments must be nonnegative")
    return x


def _check_interval(x, y):
    """``(x, y)`` as checked arrays of the interval (y, x]: nonnegative, x >= y."""
    x, y = _check_nonnegative(x), _check_nonnegative(y)
    if np.any(x < y):
        raise ValueError("interval upper end x must not be below its lower end y")
    return x, y


@dataclass(frozen=True)
class ThresholdSpec:
    """A node's threshold distribution (closed enumeration of families)."""

    family: str
    alpha: float = None
    beta: float = None

    def __post_init__(self):
        if self.family not in ("uniform", "exponential", "beta"):
            raise ValueError(f"unknown threshold family {self.family!r}")
        if self.family == "beta":
            if self.alpha is None or self.beta is None:
                raise ValueError("beta thresholds need alpha and beta")
            if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
                raise ValueError(
                    f"beta parameters alpha and beta must be positive and "
                    f"finite, got ({self.alpha}, {self.beta})"
                )

    @property
    def support_bound(self) -> float:
        return np.inf if self.family == "exponential" else 1.0

    @property
    def log_concave_density(self) -> bool:
        if self.family == "beta":
            return self.alpha >= 1.0 and self.beta >= 1.0
        return True

    @property
    def concave_cdf(self) -> bool:
        if self.family == "beta":
            return self.alpha <= 1.0 and self.beta >= 1.0
        return True

    # -- distribution functions -------------------------------------------

    def cdf(self, x):
        out = self._cdf(_check_nonnegative(x))
        return out if out.ndim else float(out)

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation."""
        out = self._sf(_check_nonnegative(x))
        return out if out.ndim else float(out)

    def density(self, x):
        out = self._density(_check_nonnegative(x))
        return out if out.ndim else float(out)

    def density_derivative(self, x):
        out = self._density_derivative(_check_nonnegative(x))
        return out if out.ndim else float(out)

    # -- unchecked array forms (the likelihood and closure kernels' entry points)

    @cached_property
    def _beta_norm(self) -> float:
        return special.beta(self.alpha, self.beta)

    @cached_property
    def _median(self) -> float:
        """F^-1(1/2): every factor of the likelihood is finite and nonzero there."""
        return float(self.inverse_cdf(0.5))

    def _cdf(self, x):
        if self.family == "uniform":
            return x.clip(0.0, 1.0)
        if self.family == "exponential":
            return -np.expm1(-x)
        return special.betainc(self.alpha, self.beta, x.clip(0.0, 1.0))

    def _sf(self, x):
        if self.family == "uniform":
            return (1.0 - x).clip(0.0, 1.0)
        if self.family == "exponential":
            return np.exp(-x)
        return special.betainc(self.beta, self.alpha, 1.0 - x.clip(0.0, 1.0))

    def _density(self, x):
        if self.family == "uniform":
            return np.where(x <= 1.0, 1.0, 0.0)
        if self.family == "exponential":
            return np.exp(-x)
        xc = x.clip(0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.power(xc, self.alpha - 1.0) * np.power(1.0 - xc, self.beta - 1.0)
        return np.where(x > 1.0, 0.0, out / self._beta_norm)

    def _density_derivative(self, x):
        if self.family == "uniform":
            return np.zeros_like(x)
        if self.family == "exponential":
            return -np.exp(-x)
        a, b = self.alpha, self.beta
        xc = x.clip(0.0, 1.0)
        # a term whose coefficient is 0 (a == 1 or b == 1) is dropped, not
        # multiplied out: its power is infinite at the matching end of [0, 1]
        out = np.zeros_like(xc)
        with np.errstate(divide="ignore", invalid="ignore"):
            if a != 1.0:
                out += (a - 1.0) * np.power(xc, a - 2.0) * np.power(1.0 - xc, b - 1.0)
            if b != 1.0:
                out -= (b - 1.0) * np.power(xc, a - 1.0) * np.power(1.0 - xc, b - 2.0)
        return np.where(x > 1.0, 0.0, out / self._beta_norm)

    def _interval(self, x, y):
        """F(x) - F(y), unclamped: below 0 when x < y or from rounding."""
        if self.family == "uniform":
            return x.clip(0.0, 1.0) - y.clip(0.0, 1.0)
        return self._sf(y) - self._sf(x)

    def _log_interval(self, x, y, diff):
        """log(F(x) - F(y)) given ``diff = _interval(x, y)``."""
        if self.family == "exponential":
            # log(e^{-y} - e^{-x}) = -y + log(1 - e^{-(x-y)})
            return -y + np.log(-np.expm1(-(x - y)))
        if self.family == "uniform":
            return np.log(diff)
        return np.log(np.maximum(diff, _LOG_FLOOR))

    def _log_sf(self, x, sf):
        """log(1 - F(x)) given ``sf = _sf(x)``."""
        if self.family == "exponential":
            return -x
        return np.log(np.maximum(sf, 0.0))

    def inverse_cdf(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p < 0) | (p > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.family == "uniform":
            out = p.copy()
        elif self.family == "exponential":
            out = -np.log1p(-p)
        else:
            out = special.betaincinv(self.alpha, self.beta, p)
        return out if out.ndim else float(out)

    # -- stable log quantities ---------------------------------------------

    def log_sf(self, x):
        x = _check_nonnegative(x)
        with np.errstate(divide="ignore"):
            out = self._log_sf(x, self._sf(x))
        return out if out.ndim else float(out)

    def interval_prob(self, x, y):
        """F(x) - F(y) for x >= y, via the complementary cdf when generic."""
        out = np.maximum(self._interval(*_check_interval(x, y)), 0.0)
        return out if out.ndim else float(out)

    def log_interval_prob(self, x, y):
        """log(F(x) - F(y)) for x >= y, closed form where the family allows it."""
        x, y = _check_interval(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_interval(x, y, self._interval(x, y))
        return out if out.ndim else float(out)

    def interval_zero_tol(self) -> float:
        """Differences at or below this are numerically indistinguishable from 0."""
        return _BETA_DIFF_TOL if self.family == "beta" else 0.0

    def __repr__(self):
        if self.family == "beta":
            return f"ThresholdSpec(beta, alpha={self.alpha}, beta={self.beta})"
        return f"ThresholdSpec({self.family})"


def make_uniform() -> ThresholdSpec:
    return ThresholdSpec("uniform")


def make_exponential_unit() -> ThresholdSpec:
    return ThresholdSpec("exponential")


def make_beta(alpha: float, beta: float) -> ThresholdSpec:
    return ThresholdSpec("beta", alpha=float(alpha), beta=float(beta))


def spec_to_dict(spec: ThresholdSpec) -> dict:
    if spec.family == "beta":
        return {"family": "beta", "alpha": spec.alpha, "beta": spec.beta}
    return {"family": spec.family}


def spec_from_dict(d: dict) -> ThresholdSpec:
    if not isinstance(d, dict):
        raise ValueError(f"expected a threshold object, got {d!r}")
    family = d.get("family")
    if family == "uniform":
        return make_uniform()
    if family == "exponential":
        return make_exponential_unit()
    if family == "beta":
        if "alpha" not in d or "beta" not in d:
            raise ValueError(f"beta thresholds need alpha and beta, got {d!r}")
        return make_beta(d["alpha"], d["beta"])
    raise ValueError(f"unknown threshold family {family!r}")
