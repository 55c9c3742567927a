"""The zero-trace caloric series: recurrence, values, residuals."""

import math

import mpmath as mp
import numpy as np
import pytest

from spdecrit.lab.tychonov import (
    EvaluationOverflow,
    TychonovSeries,
    analytic_heat_residual_mp,
    fd_heat_residual,
    tychonov_eval,
    tychonov_residual,
)


@pytest.fixture(scope="module")
def series():
    return TychonovSeries.build(2, 34)


def test_polynomial_degrees_grow_by_alpha_plus_one(series):
    degs = [len(p) - 1 for p in series.poly_table[:6]]
    for lo, hi in zip(degs, degs[1:]):
        assert hi <= lo + 3


def test_derivatives_match_high_precision_differences(series):
    """The recurrence is validated against centered differences of g
    itself, none of the polynomial machinery involved."""
    with mp.workdps(60):
        d = mp.mpf("1e-12")
        for t in (mp.mpf("0.6"), mp.mpf("1.3")):
            g = lambda tt: mp.e ** (-1 / tt**2)
            for k in (1, 2, 3):
                stencil = [g(t + i * d) for i in (-2, -1, 0, 1, 2)]
                if k == 1:
                    fd = (stencil[3] - stencil[1]) / (2 * d)
                elif k == 2:
                    fd = (stencil[3] - 2 * stencil[2] + stencil[1]) / d**2
                else:
                    fd = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * d**3)
                exact = series.g_derivative_mp(k, t)
                assert abs(fd - exact) < mp.mpf("1e-12") * abs(exact)


def test_alpha_must_be_integer_at_least_two():
    with pytest.raises(ValueError):
        TychonovSeries.build(1, 4)
    with pytest.raises(ValueError):
        TychonovSeries.build(2.5, 4)


def test_center_value_is_exp_minus_one(series):
    value = tychonov_eval(series, 1.0, 0.0, 30)
    assert abs(value - math.exp(-1.0)) < 1e-12


def test_vanishes_for_nonpositive_time(series):
    for t in (-2.0, -1e-9, 0.0):
        for x in (0.0, 0.3, 1.0):
            assert tychonov_eval(series, t, x, 20) == 0.0


def test_series_converges_in_k(series):
    a = tychonov_eval(series, 0.8, 0.9, 10)
    b = tychonov_eval(series, 0.8, 0.9, 20)
    c = tychonov_eval(series, 0.8, 0.9, 30)
    assert abs(b - c) < abs(a - c) + 1e-30
    assert abs(c - tychonov_eval(series, 0.8, 0.9, 31)) < 1e-25


def test_residual_two_routes_agree(series):
    """Telescoping formula vs centered differences in high precision."""
    worst_rel = 0.0
    scale = mp.mpf(0)
    pairs = []
    for t in np.linspace(0.5, 1.0, 3):
        for x in np.linspace(-1.0, 1.0, 3):
            an = analytic_heat_residual_mp(series, 30, t, x)
            fd = fd_heat_residual(series, 30, t, x)
            pairs.append((an, fd))
            scale = max(scale, abs(an))
    worst = max(abs(a - b) for a, b in pairs)
    assert float(worst / scale) < 1e-6


def test_residual_shrinks_with_more_terms(series):
    tg = np.linspace(0.5, 1.0, 4)
    xg = np.linspace(-1.0, 1.0, 4)
    r30 = tychonov_residual(series, 30, tg, xg)
    r40 = tychonov_residual(series, 40, tg, xg)
    assert r40 < r30


def test_residual_vanishes_on_axis(series):
    assert tychonov_residual(series, 30, [0.5, 0.8], [0.0]) == 0.0


def test_residual_region_guard(series):
    with pytest.raises(ValueError):
        tychonov_residual(series, 10, [0.0, 0.5], [0.0])


def test_eval_overflow_guard(series):
    with pytest.raises(EvaluationOverflow):
        tychonov_eval(series, 0.8, 1.0e7, 30)


def test_alpha_three_recurrence():
    s3 = TychonovSeries.build(3, 6)
    with mp.workdps(50):
        t = mp.mpf("0.9")
        d = mp.mpf("1e-10")
        g = lambda tt: mp.e ** (-1 / tt**3)
        fd = (g(t + d) - g(t - d)) / (2 * d)
        assert abs(fd - s3.g_derivative_mp(1, t)) < mp.mpf("1e-10") * abs(fd)


def test_fd_step_and_precision_follow_the_residual():
    from spdecrit.lab.tychonov import fd_step_and_precision

    # K <= 31 on the default region: the fixed settings, so those outputs keep their bits
    for scale in (mp.mpf("4.1e-36"), mp.mpf("7.1e-38"), 0.5, mp.mpf(0)):
        assert fd_step_and_precision(scale) == ("1e-25", 120)
    # smaller residuals: stencil error (~delta^2) and roundoff (~10^-dps / delta^2)
    # both twelve digits below the residual
    for scale in (mp.mpf("1.49e-44"), mp.mpf("9.1e-122"), mp.mpf("4e-218")):
        delta, dps = fd_step_and_precision(scale)
        step = mp.mpf(delta)
        assert dps >= 120 and step <= mp.mpf("1e-25")
        assert step**2 <= scale * 1e-12 and mp.mpf(10) ** -dps / step**2 <= scale * 1e-12


def test_residual_two_routes_agree_past_35_terms():
    from spdecrit.lab.tychonov import fd_step_and_precision

    series = TychonovSeries.build(2, 42)
    points = [(t, x) for t in (0.5, 0.75, 1.0) for x in (-1.0, 0.5, 1.0)]
    analytic = [analytic_heat_residual_mp(series, 40, t, x) for t, x in points]
    scale = max(abs(a) for a in analytic)
    delta, dps = fd_step_and_precision(scale)
    fd = [fd_heat_residual(series, 40, t, x, delta=delta, dps=dps) for t, x in points]
    assert float(max(abs(a - b) for a, b in zip(analytic, fd)) / scale) < 1e-10


@pytest.mark.parametrize("alpha,terms", [(2, 1), (2, 30), (3, 12), (20, 30), (2, 155), (2, 400)])
def test_table_size_counts_every_polynomial_the_suite_builds(alpha, terms):
    from spdecrit.suites import _TYCHONOV_TABLE_BUDGET, _tychonov_table_size

    table = TychonovSeries.build(alpha, terms + 11).poly_table
    assert _tychonov_table_size(alpha, terms) == sum(map(len, table)) <= _TYCHONOV_TABLE_BUDGET
