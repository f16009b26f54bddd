"""Loss-curve analysis: power-law fits and multiplicative token shifts.

Curves of the same architecture at different sizes track L(n) =
c + a * n^(-b) after an unstable early stage, and same-shape curves
differ by a horizontal offset on a log-token axis. Both analyses
exclude a burn-in prefix (default: the first 10% of tokens).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

GRID_LO, GRID_HI, GRID_POINTS = 0.01, 2.0, 1025
# Elements of one (exponents x points) block of the fit: a long curve
# takes the grid a few exponents at a time, so its temporaries stay a
# few hundred KiB however many points it has.
FIT_BLOCK = 1 << 15


@dataclass
class PowerLawFit:
    a: float
    b: float
    c: float
    residual: float  # RMS in log space over the fitted points
    burn_in: float

    def predict(self, tokens) -> np.ndarray:
        n = np.asarray(tokens, dtype=np.float64)
        return self.c + self.a * n ** (-self.b)


@dataclass
class ShiftEstimate:
    factor: float
    residual: float


def _window(curve, burn_in) -> tuple[np.ndarray, np.ndarray, float]:
    """(tokens, losses, burn_in) of a LossCurve or a (tokens, losses)
    pair, sorted by tokens, from burn_in tokens on (default: 10% of the
    largest token count)."""
    if hasattr(curve, "tokens"):
        tokens, losses = curve.tokens(), curve.losses()
    else:
        tokens, losses = (np.asarray(x, dtype=np.float64) for x in curve)
    order = np.argsort(tokens)
    tokens, losses = tokens[order], losses[order]
    if burn_in is None:
        burn_in = 0.1 * float(tokens.max()) if tokens.size else 0.0
    keep = tokens >= burn_in
    return tokens[keep], losses[keep], float(burn_in)


def _nonnegative_fits(x: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares (a, c) >= 0 of L ~ a*x + c for each row of x.

    The centred least-squares pair is the answer where both are
    nonnegative. Elsewhere the optimum lies on a face of the feasible
    quadrant, a = 0 with c = max(mean L, 0) or c = 0 with
    a = max(x.L / x.x, 0), and the face that fits better wins.
    """
    L_mean = L.mean()
    x_mean = x.mean(axis=1)
    xc = x - x_mean[:, None]
    sxx = np.einsum("ij,ij->i", xc, xc)
    a = np.divide(xc @ (L - L_mean), sxx, out=np.full_like(sxx, np.nan), where=sxx > 0)
    c = L_mean - a * x_mean
    xx = np.einsum("ij,ij->i", x, x)
    a_face = np.maximum(np.divide(x @ L, xx, out=np.zeros_like(xx), where=xx > 0), 0.0)
    c_face = max(L_mean, 0.0)
    resid = np.multiply(x, a_face[:, None], out=xc)
    resid -= L
    on_c0 = np.einsum("ij,ij->i", resid, resid) < np.sum((c_face - L) ** 2)
    inside = (a >= 0) & (c >= 0)
    return (np.where(inside, a, np.where(on_c0, a_face, 0.0)),
            np.where(inside, c, np.where(on_c0, 0.0, c_face)))


def fit_power_law(curve, burn_in: float | None = None) -> PowerLawFit:
    """Fit c + a*n^(-b) by a geometric grid over b, minimizing
    linear-space RMS with the closed-form nonnegative (a, c) of each
    gridpoint (see _nonnegative_fits); the first of equal minima wins.
    The grid is taken in blocks of FIT_BLOCK elements."""
    n, L, burn_in = _window(curve, burn_in)
    if n.size < 10:
        raise AnalysisError(f"need at least 10 points beyond burn-in, have {n.size}")
    if (n <= 0).any() or (L <= 0).any():
        raise AnalysisError("power-law fit requires positive tokens and losses")

    grid = np.geomspace(GRID_LO, GRID_HI, GRID_POINTS)
    rows = max(1, FIT_BLOCK // n.size)
    best = None
    for start in range(0, grid.size, rows):
        b = grid[start:start + rows]
        x = n ** -b[:, None]
        a, c = _nonnegative_fits(x, L)
        x *= a[:, None]
        x += c[:, None]
        x -= L
        rss = np.einsum("ij,ij->i", x, x)
        i = int(np.argmin(rss))
        if best is None or rss[i] < best[0]:
            best = (rss[i], float(a[i]), float(b[i]), float(c[i]))
    _, a, b, c = best
    pred = np.maximum(c + a * n ** (-b), 1e-300)
    log_resid = float(np.sqrt(np.mean((np.log(L) - np.log(pred)) ** 2)))
    return PowerLawFit(a=a, b=b, c=c, residual=log_resid, burn_in=burn_in)


def _monotone_log_curve(curve, burn_in):
    """(log tokens, running-min losses) beyond burn-in, ready for interp."""
    tokens, losses, _ = _window(curve, burn_in)
    if tokens.size < 2:
        raise AnalysisError("curve too short beyond burn-in")
    if (tokens <= 0).any():
        raise AnalysisError("token counts must be positive")
    return np.log(tokens), np.minimum.accumulate(losses)


def estimate_shift(curve_a, curve_b, burn_in: float | None = None) -> ShiftEstimate:
    """Factor s minimizing the gap between L_a(n) and L_b(s*n).

    s > 1 means curve_a reaches any given loss with s times fewer
    tokens (curve_a ahead); call with the stronger run as curve_a.
    """
    ta, la = _monotone_log_curve(curve_a, burn_in)
    tb, lb = _monotone_log_curve(curve_b, burn_in)
    min_span = min(ta[-1] - ta[0], tb[-1] - tb[0])
    if min_span <= 0:
        raise AnalysisError("curves have no token range")
    u_lo = (tb[0] - ta[-1]) + 0.1 * min_span
    u_hi = (tb[-1] - ta[0]) - 0.1 * min_span
    if u_lo >= u_hi:
        raise AnalysisError("curves do not overlap in tokens")

    def objective(u: float) -> float:
        lo = max(ta[0], tb[0] - u)
        hi = min(ta[-1], tb[-1] - u)
        if hi <= lo:
            return math.inf
        grid = np.linspace(lo, hi, 128)
        fa = np.interp(grid, ta, la)
        fb = np.interp(grid + u, tb, lb)
        return float(np.mean((fa - fb) ** 2))

    # Golden-section search on log-shift.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = u_lo, u_hi
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = objective(x2)
    u_best = x1 if f1 <= f2 else x2
    f_best = min(f1, f2)
    # An exact zero-shift candidate keeps identical curves at s = 1.
    if u_lo <= 0.0 <= u_hi:
        f_zero = objective(0.0)
        if f_zero <= f_best:
            u_best, f_best = 0.0, f_zero
    return ShiftEstimate(factor=math.exp(u_best), residual=math.sqrt(f_best))
