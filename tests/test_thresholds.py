import numpy as np
import pytest

from gltnet import (
    make_beta,
    make_exponential_unit,
    make_uniform,
)
from gltnet.thresholds import spec_from_dict, spec_to_dict


def _grid(spec, points=60):
    # stay where inversion is well conditioned: near a finite support end the
    # density vanishes and a 1-ulp cdf error moves the inverse by ~1e-16/f
    h = min(spec.support_bound, 10.0)
    return np.linspace(1e-6, h - 5e-3 if np.isfinite(spec.support_bound) else h, points)


def test_cdf_closed_form_values():
    assert make_uniform().cdf(0.3) == pytest.approx(0.3, abs=1e-12)
    assert make_exponential_unit().cdf(np.log(2)) == pytest.approx(0.5, abs=1e-12)
    # beta(2, 1) has cdf x^2
    assert make_beta(2, 1).cdf(0.5) == pytest.approx(0.25, abs=1e-12)


def test_beta_1_1_equals_uniform():
    b = make_beta(1, 1)
    u = make_uniform()
    for x in np.linspace(0, 1, 21):
        assert b.cdf(x) == pytest.approx(u.cdf(x), abs=1e-12)


def test_flags():
    assert make_uniform().concave_cdf and make_uniform().log_concave_density
    assert make_exponential_unit().concave_cdf
    assert make_beta(1, 2).concave_cdf
    spec21 = make_beta(2, 1)
    assert not spec21.concave_cdf
    assert spec21.log_concave_density
    assert not make_beta(0.5, 2).log_concave_density
    assert make_exponential_unit().concave_cdf


def test_beta_2_2_not_concave_numerically():
    # derivative oracle: F'' > 0 somewhere near 0 for beta(2, 2)
    spec = make_beta(2, 2)
    assert not spec.concave_cdf
    xs = np.linspace(0.01, 0.99, 99)
    d2 = np.array(
        [
            (spec.cdf(x + 1e-4) - 2 * spec.cdf(x) + spec.cdf(x - 1e-4)) / 1e-8
            for x in xs
        ]
    )
    assert d2.max() > 1e-3  # convex region exists, so not concave


def test_concave_flag_matches_second_derivative_sign():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(1, 2), make_beta(2, 1), make_beta(2, 2)]:
        xs = np.linspace(0.05, min(spec.support_bound, 6.0) - 0.05, 60)
        d2 = np.array(
            [
                (spec.cdf(x + 1e-4) - 2 * spec.cdf(x) + spec.cdf(x - 1e-4)) / 1e-8
                for x in xs
            ]
        )
        if spec.concave_cdf:
            assert np.all(d2 <= 1e-4)
        else:
            assert np.any(d2 > 1e-3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_beta(0, 1)
    with pytest.raises(ValueError):
        make_beta(1, -2)
    with pytest.raises(ValueError):
        make_uniform().cdf(-0.5)


def test_inverse_cdf_roundtrip():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(2, 2), make_beta(1, 3)]:
        for x in _grid(spec):
            assert spec.inverse_cdf(spec.cdf(x)) == pytest.approx(x, abs=1e-10)


def test_density_matches_cdf_finite_difference():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(2, 2), make_beta(1.5, 3)]:
        h_bound = min(spec.support_bound, 10.0)
        for x in np.linspace(0.02, h_bound - 0.02 if np.isfinite(spec.support_bound) else h_bound, 40):
            step = 1e-6
            fd = (spec.cdf(x + step) - spec.cdf(x - step)) / (2 * step)
            assert spec.density(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_density_derivative_matches_density_finite_difference():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(2, 2), make_beta(3, 2)]:
        h_bound = min(spec.support_bound, 10.0)
        for x in np.linspace(0.05, h_bound - 0.05 if np.isfinite(spec.support_bound) else h_bound, 30):
            step = 1e-5
            fd = (spec.density(x + step) - spec.density(x - step)) / (2 * step)
            assert spec.density_derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-8)


# at a support end where a beta density derivative is finite, the term with a
# zero coefficient (alpha == 1 or beta == 1) must not turn 0 * inf into nan
def test_beta_1_3_density_derivative_at_0():
    assert make_beta(1, 3).density_derivative(0.0) == pytest.approx(-6.0, rel=1e-14)


def test_beta_2_1_density_derivative_at_1():
    assert make_beta(2, 1).density_derivative(1.0) == pytest.approx(2.0, rel=1e-14)


def test_beta_1_1_density_derivative_at_0():
    assert make_beta(1, 1).density_derivative(0.0) == 0.0


def test_log_density_midpoint_concavity_when_flagged():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(2, 2), make_beta(1, 3)]:
        assert spec.log_concave_density
        xs = _grid(spec, 40)
        logf = np.log(np.maximum(spec.density(xs), 1e-300))
        mids = np.log(np.maximum(spec.density((xs[:-2] + xs[2:]) / 2), 1e-300))
        assert np.all(mids >= (logf[:-2] + logf[2:]) / 2 - 1e-9)


def test_sf_and_log_interval_prob_stability():
    spec = make_exponential_unit()
    # survival at large x: exact closed form, no cancellation
    assert spec.log_sf(30.0) == pytest.approx(-30.0, abs=1e-12)
    # interval prob between nearby large arguments stays accurate
    x, y = 12.0, 12.0 - 1e-8
    expected = np.exp(-y) - np.exp(-x)
    assert spec.interval_prob(x, y) == pytest.approx(expected, rel=1e-6)
    beta = make_beta(1, 3)
    # 1 - F near the upper support end via the complementary path
    assert beta.sf(1 - 1e-6) == pytest.approx((1e-6) ** 3, rel=1e-9)


def test_json_roundtrip():
    for spec in [make_uniform(), make_exponential_unit(), make_beta(2.5, 1.5)]:
        assert spec_from_dict(spec_to_dict(spec)) == spec
    with pytest.raises(ValueError):
        spec_from_dict({"family": "weibull"})


@pytest.mark.parametrize(
    "spec", [make_uniform(), make_exponential_unit(), make_beta(2, 3)], ids=lambda s: s.family
)
@pytest.mark.parametrize(
    "method",
    ["cdf", "sf", "density", "density_derivative", "log_sf", "interval_prob", "log_interval_prob"],
)
def test_public_methods_reject_negative_arguments(spec, method):
    # the likelihood kernel uses unchecked forms; the public methods still check
    fn = getattr(spec, method)
    if method.endswith("interval_prob"):
        interval = fn

        def fn(y):  # the upper end y + 0.5 is valid, so only y can fail
            return interval(np.add(y, 0.5), y)

    with pytest.raises(ValueError, match="nonnegative"):
        fn(-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        fn(np.array([0.2, -1e-12, 0.5]))
    fn(np.array([0.0, 0.2]))  # zero is a valid threshold argument


@pytest.mark.parametrize(
    "spec", [make_uniform(), make_exponential_unit(), make_beta(2, 3)], ids=lambda s: s.family
)
def test_interval_methods_reject_reversed_bounds(spec):
    # one answer for x < y in every family, where the unchecked forms would
    # give nan, a floored log or a clamped 0.0
    for method in (spec.interval_prob, spec.log_interval_prob):
        with pytest.raises(ValueError, match="must not be below"):
            method(0.2, 0.5)
        with pytest.raises(ValueError, match="must not be below"):
            method(np.array([0.5, 0.2]), np.array([0.2, 0.2 + 1e-12]))
        method(np.array([0.5, 0.2]), np.array([0.2, 0.2]))  # x == y is a valid interval
