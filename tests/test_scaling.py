"""Curve-analysis tests: power-law recovery and token-shift estimation
on synthetic trajectories with known parameters."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls

from cramlab.errors import AnalysisError
from cramlab import scaling
from cramlab.scaling import ShiftEstimate, estimate_shift, fit_power_law
from cramlab.trainer import CurvePoint, LossCurve


def synthetic_curve(a=3.0, b=0.3, c=1.5, n_points=40, lo=1e4, hi=2e6):
    tokens = np.geomspace(lo, hi, n_points)
    return tokens, c + a * tokens ** (-b)


def test_fit_recovers_known_power_law():
    tokens, losses = synthetic_curve()
    fit = fit_power_law((tokens, losses))
    assert fit.b == pytest.approx(0.3, rel=0.01)
    assert fit.a == pytest.approx(3.0, rel=0.05)
    assert fit.c == pytest.approx(1.5, rel=0.05)
    assert fit.residual < 1e-3


def test_fit_predict_matches_samples():
    tokens, losses = synthetic_curve(a=2.0, b=0.5, c=2.0)
    fit = fit_power_law((tokens, losses))
    pred = fit.predict(tokens[tokens >= fit.burn_in])
    target = losses[tokens >= fit.burn_in]
    np.testing.assert_allclose(pred, target, rtol=5e-3)


def test_fit_tolerates_small_noise():
    # (a, b, c) are only weakly identified under noise; what must hold
    # is that the fitted curve still tracks the clean one
    rng = np.random.default_rng(5)
    tokens, losses = synthetic_curve(n_points=60, lo=1e3, hi=1e8)
    noisy = losses * np.exp(rng.normal(0.0, 0.01, losses.size))
    fit = fit_power_law((tokens, noisy))
    kept = tokens[tokens >= fit.burn_in]
    np.testing.assert_allclose(fit.predict(kept),
                               losses[tokens >= fit.burn_in], rtol=0.02)


def test_fit_applies_default_burn_in():
    tokens, losses = synthetic_curve()
    # corrupt the early unstable stage; the default 10% cut must drop it
    losses = losses.copy()
    losses[tokens < 0.1 * tokens.max()] = 50.0
    fit = fit_power_law((tokens, losses))
    assert fit.burn_in == pytest.approx(0.1 * tokens.max())
    assert fit.b == pytest.approx(0.3, rel=0.02)


def test_fit_accepts_loss_curve_objects():
    tokens, losses = synthetic_curve(n_points=30)
    curve = LossCurve([CurvePoint(i, int(t), 0.0, float(l), 0.0)
                       for i, (t, l) in enumerate(zip(tokens, losses))])
    fit = fit_power_law(curve)
    assert fit.b == pytest.approx(0.3, rel=0.02)


def test_fit_needs_ten_points_beyond_burn_in():
    tokens = np.geomspace(1e3, 1e6, 12)
    losses = 2.0 + tokens ** (-0.2)
    # 10% burn-in leaves nine points
    with pytest.raises(AnalysisError):
        fit_power_law((tokens, losses), burn_in=tokens[3])


def test_fit_rejects_nonpositive_values():
    tokens, losses = synthetic_curve(n_points=15)
    bad = losses.copy()
    bad[-1] = 0.0
    with pytest.raises(AnalysisError):
        fit_power_law((tokens, bad), burn_in=0.0)


def nnls_reference_fit(tokens, losses):
    """(a, b, c) by scipy's nnls at every exponent of the fit's grid,
    the first of equal minima winning; burn-in is left to the caller."""
    best = None
    for b in np.geomspace(scaling.GRID_LO, scaling.GRID_HI, scaling.GRID_POINTS):
        design = np.column_stack([tokens ** (-b), np.ones_like(tokens)])
        (a, c), rnorm = nnls(design, losses)
        if best is None or rnorm < best[0]:
            best = (rnorm, a, b, c)
    return best[1:]


def reference_curves():
    """Curves whose best fit lies inside the quadrant, on a = 0 (rising
    losses) and on c = 0 (a negative offset), plus noisy ones."""
    rng = np.random.default_rng(29)
    tokens = np.geomspace(3e3, 4e7, 50)
    yield pytest.param(tokens, 1.5 + 3.0 * tokens ** (-0.3), "interior", id="interior")
    yield pytest.param(tokens, 2.0 + 0.1 * np.log(tokens), "a=0", id="rising")
    power = 4.0 * tokens ** (-0.25)
    yield pytest.param(tokens, power - 0.5 * power[-1], "c=0", id="negative-offset")
    for i in range(12):
        n = np.geomspace(10 ** rng.uniform(2, 4), 10 ** rng.uniform(5, 9),
                         int(rng.integers(12, 200)))
        clean = rng.uniform(0.5, 5.0) + rng.uniform(0.5, 20.0) * n ** -rng.uniform(0.05, 1.0)
        yield pytest.param(n, clean * np.exp(rng.normal(0.0, 0.02, n.size)), None,
                           id=f"noisy-{i}")


@pytest.mark.parametrize("tokens, losses, face", reference_curves())
def test_fit_matches_an_nnls_reference_on_every_active_set(tokens, losses, face):
    a, b, c = nnls_reference_fit(tokens, losses)
    fit = fit_power_law((tokens, losses), burn_in=0.0)
    assert fit.b == b
    assert fit.a == pytest.approx(a, rel=1e-9, abs=0.0)
    assert fit.c == pytest.approx(c, rel=1e-9, abs=0.0)
    if face is not None:
        assert face == {(False, False): "interior", (True, False): "a=0",
                        (False, True): "c=0"}[(fit.a == 0.0, fit.c == 0.0)]


def test_fit_temporaries_stay_bounded_on_a_long_curve():
    tokens, losses = synthetic_curve(n_points=8000)
    tracemalloc.start()
    try:
        fit = fit_power_law((tokens, losses), burn_in=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.b == pytest.approx(0.3, rel=0.01)
    # one (1025, 8000) float64 temporary of the whole grid is 62.6 MiB
    assert peak < 8 * 2**20


def test_shift_of_identical_curves_is_one():
    tokens, losses = synthetic_curve()
    est = estimate_shift((tokens, losses), (tokens, losses))
    assert isinstance(est, ShiftEstimate)
    assert est.factor == 1.0
    assert est.residual == pytest.approx(0.0, abs=1e-12)


def test_shift_recovers_known_token_factor():
    # curve_a reaches every loss with half the tokens of curve_b
    na = np.geomspace(1e3, 1e6, 48)
    nb = np.geomspace(1e3, 1e6, 48)
    f = lambda n: 1.0 + 5.0 * n ** (-0.35)
    est = estimate_shift((na, f(na)), (nb, f(nb / 2.0)))
    assert est.factor == pytest.approx(2.0, rel=0.05)


def test_shift_is_scale_equivariant():
    na = np.geomspace(1e3, 1e6, 48)
    f = lambda n: 1.0 + 5.0 * n ** (-0.35)
    a = (na, f(na))
    b = (na, f(na / 3.0))
    e1 = estimate_shift(a, b)
    e2 = estimate_shift((na * 10.0, a[1]), (na * 10.0, b[1]))
    assert e1.factor == pytest.approx(e2.factor, rel=1e-3)
    assert e1.factor == pytest.approx(3.0, rel=0.08)


def test_shift_direction_convention():
    # the stronger run goes first: reversing the arguments inverts s
    na = np.geomspace(1e3, 1e6, 48)
    f = lambda n: 1.0 + 5.0 * n ** (-0.35)
    fwd = estimate_shift((na, f(na)), (na, f(na / 2.0)))
    rev = estimate_shift((na, f(na / 2.0)), (na, f(na)))
    assert fwd.factor > 1.0 > rev.factor
    assert fwd.factor * rev.factor == pytest.approx(1.0, rel=0.05)


def test_shift_aligns_non_overlapping_token_ranges():
    # a log-axis shift can align curves whose raw token ranges do not
    # even touch, as long as the shifted shapes overlap
    na = np.geomspace(1e3, 1e4, 24)
    nb = np.geomspace(1e5, 1e6, 24)
    f = lambda n: 1.0 + 5.0 * n ** (-0.35)
    est = estimate_shift((na, f(na)), (nb, f(nb / 100.0)))
    assert est.factor == pytest.approx(100.0, rel=0.1)


def test_shift_rejects_degenerate_curve():
    na = np.geomspace(1e3, 1e6, 20)
    f = lambda n: 1.0 + n ** (-0.1)
    with pytest.raises(AnalysisError):
        estimate_shift((na[:1], f(na[:1])), (na, f(na)), burn_in=0.0)


def test_shift_uses_running_minimum_for_noisy_tails():
    # one upward spike late in a curve must not drag the estimate
    na = np.geomspace(1e3, 1e6, 48)
    f = lambda n: 1.0 + 5.0 * n ** (-0.35)
    la = f(na)
    la_noisy = la.copy()
    la_noisy[40] = la[40] + 2.0
    est = estimate_shift((na, la_noisy), (na, f(na / 2.0)))
    assert est.factor == pytest.approx(2.0, rel=0.08)
