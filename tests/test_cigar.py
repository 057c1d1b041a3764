import numpy as np
import pytest
from scipy.integrate import quad

from cigarflow import cigar
from cigarflow.diagnostics import cigar_number


def log_sample():
    return np.logspace(-3, 3, 1000)


def test_density_values():
    assert cigar.cigar_density(0.0) == 1.0
    assert cigar.cigar_density(1.0) == 0.5
    assert cigar.cigar_density(3.0) == 0.1
    r = log_sample()
    w = cigar.cigar_density(r)
    assert np.all(np.diff(w) < 0)
    assert np.all(w > 0)


def test_scalar_curvature_values():
    assert cigar.cigar_scalar_curvature(0.0) == 4.0
    assert cigar.cigar_scalar_curvature(1.0) == 2.0
    assert cigar.cigar_scalar_curvature(100.0) == pytest.approx(4.0 / 10001.0, rel=1e-15)
    r = log_sample()
    np.testing.assert_array_equal(
        cigar.cigar_scalar_curvature(r), 4.0 * cigar.cigar_density(r)
    )


def test_potential_values():
    assert cigar.cigar_potential(0.0) == 0.0
    assert cigar.cigar_potential(1.0) == pytest.approx(np.log(2.0), rel=1e-15)


def test_potential_density_identity():
    r = log_sample()
    dev = np.abs(cigar.cigar_potential(r) + np.log(cigar.cigar_density(r)))
    assert np.max(dev) <= 1e-12


def test_potential_arclength_identity_relative():
    r = log_sample()
    f_direct = cigar.cigar_potential(r)
    f_arc = cigar.cigar_potential_arclength(cigar.arc_length(r))
    assert np.max(np.abs(f_direct - f_arc) / np.abs(f_direct)) <= 1e-12


def test_curvature_arclength_identity():
    r = log_sample()
    s = cigar.arc_length(r)
    rel = np.abs(cigar.cigar_scalar_curvature(r) - cigar.cigar_curvature_arclength(s))
    rel /= cigar.cigar_scalar_curvature(r)
    assert np.max(rel) <= 1e-12


def test_arc_length_against_quadrature():
    # independent oracle: integrate ds = dr / sqrt(1 + r^2) numerically
    oracle, err = quad(lambda rr: 1.0 / np.hypot(1.0, rr), 0.0, 1.0, epsabs=1e-13)
    assert err < 1e-12
    assert cigar.arc_length(1.0) == pytest.approx(oracle, abs=1e-12)
    assert cigar.arc_length(1.0) == pytest.approx(0.881373587019543, abs=1e-12)
    assert cigar.arc_length(0.0) == 0.0


def test_arc_length_round_trip():
    assert cigar.radius_of(cigar.arc_length(2.0)) == pytest.approx(2.0, rel=1e-12)
    r = log_sample()
    back = cigar.radius_of(cigar.arc_length(r))
    assert np.max(np.abs(back - r) / r) <= 1e-12


def test_arc_length_monotone_and_large_r():
    r = log_sample()
    s = cigar.arc_length(r)
    assert np.all(np.diff(s) > 0)
    # the log form: s ~ log(2r) for large r, no cancellation
    assert cigar.arc_length(1e300) == pytest.approx(np.log(2e300), rel=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        cigar.cigar_density(-1.0)
    with pytest.raises(ValueError):
        cigar.cigar_density(np.nan)
    with pytest.raises(ValueError):
        cigar.arc_length(np.inf)
    with pytest.raises(ValueError):
        cigar.radius_of(-0.5)
    with pytest.raises(ValueError):
        cigar.cigar_potential(np.array([1.0, -2.0]))


def test_soliton_density_values():
    assert cigar.soliton_density(0.0, 0.0, 0.0) == 1.0
    assert cigar.soliton_density(0.0, 0.0, 0.25) == pytest.approx(np.exp(-1.0), rel=1e-14)
    # at t = 0 the family is the static cigar
    x = np.linspace(0.0, 5.0, 50)
    np.testing.assert_allclose(
        cigar.soliton_density(x, 0.0 * x, 0.0), cigar.cigar_density(x), rtol=1e-14
    )


def test_soliton_overflow_guard():
    with pytest.raises(OverflowError):
        cigar.soliton_density(0.0, 0.0, 200.0)
    with pytest.raises(OverflowError):
        cigar.soliton_pullback(1.0, 0.0, 400.0)


def test_pullback_values():
    xa, xb = cigar.soliton_pullback(1.5, -2.0, 0.0)
    assert (xa, xb) == (1.5, -2.0)
    xa, xb = cigar.soliton_pullback(1.0, 0.0, 0.5)
    assert xa == pytest.approx(np.e, rel=1e-15)
    assert xb == 0.0


def test_pullback_staticity():
    lhs = np.exp(4 * 0.3) * cigar.soliton_density(*cigar.soliton_pullback(1.0, 1.0, 0.3), 0.3)
    rhs = cigar.cigar_density(np.sqrt(2.0))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    rng = np.random.default_rng(11)
    for t in (0.1, 0.5, 1.0):
        a = rng.uniform(-3, 3, 100)
        b = rng.uniform(-3, 3, 100)
        xa, xb = cigar.soliton_pullback(a, b, t)
        lhs = np.exp(4.0 * t) * cigar.soliton_density(xa, xb, t)
        rhs = cigar.cigar_density(np.hypot(a, b))
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_soliton_log_factor_and_potential():
    r = log_sample()
    for t in (0.0, 0.3, 1.0):
        expected = -np.log(np.exp(4 * t) + r * r)
        np.testing.assert_allclose(cigar.soliton_log_factor(r, t), expected, atol=1e-12)
        np.testing.assert_allclose(cigar.soliton_potential(r, t), -expected, atol=1e-12)
    assert cigar.soliton_log_factor(0.0, 0.25) == pytest.approx(-1.0, rel=1e-15)


def test_soliton_curvature_closed_form():
    r = np.linspace(0.0, 50.0, 201)
    for t in (0.0, 0.5):
        expected = 4 * np.exp(4 * t) / (np.exp(4 * t) + r * r)
        np.testing.assert_allclose(cigar.soliton_scalar_curvature(r, t), expected, rtol=1e-13)
    assert cigar.soliton_scalar_curvature(0.0, 2.0) == 4.0


def test_log_cosh_precision():
    s = np.logspace(-4, 2, 500)
    np.testing.assert_allclose(cigar.log_cosh(s), np.log1p(2 * np.sinh(s / 2) ** 2), rtol=1e-14)
    # below cosh's representable excess over 1, log(cosh(s)) loses everything;
    # the series value is s^2/2 - s^4/12
    tiny = np.logspace(-8, -5, 50)
    np.testing.assert_allclose(cigar.log_cosh(tiny), tiny**2 / 2 - tiny**4 / 12, rtol=1e-12)
    # far beyond cosh overflow
    assert cigar.log_cosh(1000.0) == pytest.approx(1000.0 - np.log(2.0), rel=1e-15)


def test_cigar_number_is_four_on_every_cigar():
    # Q = sup R (C_inf / 2 pi)^2 is scale-free: 4 on the static cigar, on its
    # scalings lambda g_c (sup R = 4 / lambda, C_inf = 2 pi sqrt lambda) and on
    # every member of the evolving family; C_inf is the circle length
    # 2 pi r e^{u~/2} at a radius where it has converged to 1e-15
    r = np.linspace(0.0, 20.0, 2001)
    r_far = 1e9
    sup_r = float(np.max(cigar.cigar_scalar_curvature(r)))
    members = [(sup_r / lam, 2.0 * np.pi * r_far * np.sqrt(lam * cigar.cigar_density(r_far)))
               for lam in (1.0, 0.25, 2.0, 9.0)]
    members += [(float(np.max(cigar.soliton_scalar_curvature(r, t))),
                 2.0 * np.pi * r_far * np.exp(0.5 * cigar.soliton_log_factor(r_far, t)))
                for t in (0.0, 0.5, 2.0)]
    for sup_r, cinf in members:
        assert abs(cigar_number(sup_r, cinf) - 4.0) <= 1e-12, (sup_r, cinf)
