"""ESD extraction and the distances of an ESD to its limit laws.

The statistics take the ESD's moduli or its arguments (esd gives both) plus
the one number the law needs. The limits of the scaled eigenvalue cloud are
a product-radius law with angles on the 2g-th roots of unity (ks_radial and
grid_deviation take g), the same radius with a uniform angle (ks_radial and
uniform_angle_ks), and a circle of fixed radius r, by default exp(-gamma/2)
(band_mass takes r and a half-width). The product radius is
(E_1 * ... * E_g)^(1/2g) for unit exponentials E_j. Its CDF at r is F(x) =
P(X <= x) at x = 2g log r, where X = log(E_1 * ... * E_g) has characteristic
function phi(t) = Gamma(1+it)^g, so one Gil-Pelaez sum serves all radii:
F(x) = 1/2 - (1/pi) int_0^T |phi|/t sin(arg phi - t x) dt, |phi(T)|/T < e^-40,
on 16-node Gauss-Legendre panels at most 8 / max(8, |x| + 3g) wide (|x| + 3g
bounds the phase rate), in blocks of 64 radii. Where a tail bound puts F or
1 - F under 1e-16 it is exactly 0 or 1, so the grid never aliases there;
elsewhere the error is about 1e-15, absolute. g = 1 keeps 1 - exp(-r^2), and
g = 2 the closed form 1 - z K_1(z), z = 2 r^2, unguarded and relative. The
special functions are numpy code here: (1 - z K_1(z), z K_1(z)), the CDF by its
ascending series up to z = 2 and the tail above it by one 22-node trapezoidal
row in v = 2 sqrt(z) sinh(u/2) shared by every z (_e1e2); log Gamma(1 + it) by
Stirling's series and the exact modulus (_log_gamma_1_plus_it); and the bound
Q(g, y), the regularized upper incomplete gamma at integer g, by its finite sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "DEGENERATE_RADIUS",
    "esd",
    "ks_one_sample",
    "ks_two_sample",
    "ks_radial",
    "grid_deviation",
    "uniform_angle_ks",
    "band_mass",
]

EULER_GAMMA = 0.57721566490153286061
DEGENERATE_RADIUS = math.exp(-EULER_GAMMA / 2.0)  # 0.74930600...

_NEGLIGIBLE = 1e-16  # a CDF or tail bound below this reads as exact 0 or 1
# _e1e2's series, k = 13..0: I's 1 / (k! (k+1)!), and K's, that times (psi(k+1) + psi(k+2)) / 2
# with psi(k+1) = H_k - gamma, H_k the k-th harmonic number
_I1_SERIES = [1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(13, -1, -1)]
_K1_SERIES = [(sum(1.0 / j for j in range(1, k + 1)) + 0.5 / (k + 1) - EULER_GAMMA) * c
              for k, c in zip(range(13, -1, -1), _I1_SERIES)]
# _e1e2's trapezoid above z = 2: (v^2, 0.4 e^(-v^2/2)) at v = 0.4 j, j = 21..0, half at v = 0
_K1_NODES = [(v2, (0.2 if v2 == 0.0 else 0.4) * math.exp(-0.5 * v2))
             for v2 in [(0.4 * j) ** 2 for j in range(21, -1, -1)]]
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _radial_cdf(g: int, radii: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        if g == 1:
            return -np.expm1(-np.square(radii))
        if g == 2:  # P(E_1 E_2 > y) = 2 sqrt(y) K_1(2 sqrt(y)) at y = r^4
            return _e1e2(2.0 * np.square(radii))[0]
        x = 2 * g * np.log(radii)
        high = _gamma_q(g, -np.minimum(x, 0.0))             # E_j >=_st U_j
        tail = np.minimum(g * np.exp(-np.exp(x / g)), 1.0)  # P(max E_j > e^(x/g))
    out = (tail < _NEGLIGIBLE).astype(float)
    live = np.flatnonzero((high >= _NEGLIGIBLE) & (tail >= _NEGLIGIBLE))
    for idx in np.split(live, range(64, live.size, 64)):  # bounds the temporaries
        per_unit = math.ceil(max(8.0, np.abs(x[idx]).max(initial=0.0) + 3 * g) / 8.0)
        t, arg_phi, weight = _inversion_grid(g, per_unit)
        out[idx] = 0.5 - np.sin(arg_phi - np.outer(x[idx], t)) @ weight / math.pi
    return np.clip(out, 1.0 - tail, high)


@functools.lru_cache(maxsize=64)
def _inversion_grid(g: int, per_unit: int):
    """Nodes t, arg phi(t) and weights w |phi(t)|/t, panels 1/per_unit wide."""
    t = np.geomspace(1e-6, 100.0, 801)  # T to 2.3%; it shrinks like 7 / sqrt(g)
    horizon = t[np.argmax(g * _log_gamma_1_plus_it(t).real - np.log(t) < -40.0)]
    panels = math.ceil(horizon * per_unit)
    u, w = np.polynomial.legendre.leggauss(16)
    t = ((np.arange(panels)[:, None] + (u + 1) / 2) * (horizon / panels)).ravel()
    log_phi = g * _log_gamma_1_plus_it(t)
    weight = np.tile(w * horizon / (2 * panels), panels) * np.exp(log_phi.real) / t
    return t, log_phi.imag, weight


def _e1e2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - z K_1(z), z K_1(z)) = (P(E_1 E_2 <= z^2/4), P(E_1 E_2 > z^2/4)) at each z >= 0
    of a 1-D array, the smaller side to relative accuracy, each value of its own z alone;
    z = 0, inf and NaN give (+0.0, 1), (1, 0) and (NaN, NaN). z <= 2: the CDF is
    2w (K - log(z/2) I), w = z^2 / 4, by the ascending series (DLMF 10.31.1), 14 terms each
    by Horner. z > 2 (and NaN): v = 2 sqrt(z) sinh(u/2) turns the tail into sqrt(z) e^-z
    int_0^inf e^(-v^2/2) (1 + x/2) / sqrt(1 + x/4) dv, x = v^2 / z, whose branch points
    +-2i sqrt(z) lie over 2 sqrt(2) off the real axis: one trapezoidal row, 22 nodes of step
    0.4 summed smallest first, serves every z to 6e-16 (Trefethen & Weideman 2014).
    """
    cdf, tail = np.empty_like(z), np.empty_like(z)
    series = z <= 2.0
    half = np.maximum(0.5 * z[series], math.ulp(0.0))  # z = 0: w = 0 times a finite log
    w = half * half
    i1, k1 = np.full_like(w, _I1_SERIES[0]), np.full_like(w, _K1_SERIES[0])
    for ci, ck in zip(_I1_SERIES[1:], _K1_SERIES[1:]):
        i1 *= w
        i1 += ci
        k1 *= w
        k1 += ck
    small = 2.0 * w * (k1 - np.log(half) * i1)
    big = np.minimum(z[~series], 1e300)  # z = inf: sqrt(z) e^-z reads 0, not inf * 0
    total = np.zeros_like(big)
    for v2, weight in _K1_NODES:
        s2 = v2 / big
        total += weight * (1.0 + 0.5 * s2) / np.sqrt(1.0 + 0.25 * s2)
    large = np.sqrt(big) * np.exp(-big) * total
    cdf[series], tail[~series] = small, large
    cdf[~series], tail[series] = 1.0 - large, 1.0 - small
    return cdf, tail


def _gamma_q(g: int, y: np.ndarray) -> np.ndarray:
    """Q(g, y) = e^-y sum_{j<g} y^j / j!, the regularized upper gamma, integer g >= 1.

    y = inf gives 0: the cap keeps the terms from reading 0 * inf.
    """
    y = np.minimum(y, 1e300)
    term = np.exp(-y)
    total = term
    for j in range(1, g):
        term = term * y / j
        total = total + term
    return total


def _log_gamma_1_plus_it(t: np.ndarray) -> np.ndarray:
    """log Gamma(1 + it) for real 0 < t <= 200, on the branch continuous in t.

    The imaginary part is Stirling's series at w = 9 + it, where its eight
    terms leave under 1e-17, minus sum_{j<8} arg(1 + j + it): one argument per
    factor of Gamma(w) / Gamma(1 + it), not one of the product, keeps it
    continuous. The real part is exact, (1/2) log(pi t / sinh(pi t)): the same
    series would leave it an absolute error near 2e-15, the cancellation of two
    real parts near log 8! = 10.6, and g times that moves the CDF.
    """
    z = 1.0 + 1j * t
    w = z + 8.0
    inv_w2 = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv_w2 + c
    shift = sum(np.log(z + j) for j in range(8))
    arg = ((w - 0.5) * np.log(w) - w + series / w - shift).imag
    return 0.5 * np.log(math.pi * t / np.sinh(math.pi * t)) + 1j * arg


def esd(moduli: np.ndarray, angles: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """formula_polar's moduli scaled by 1/sqrt(n), and the arguments of the nonzero
    points. No structural zero is in it: the limit laws put no mass on them."""
    nonzero = angles[moduli > 0]
    if nonzero.size == 0:
        raise ValueError("no nonzero points")
    return moduli / math.sqrt(n), nonzero


def ks_one_sample(values, cdf) -> float:
    """Exact two-sided Kolmogorov-Smirnov distance to a CDF callable. cdf gets each distinct
    value once, sorted, so a CDF that reads its points in blocks (_radial_cdf) gives a value
    the same result whatever its ties."""
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    new = np.concatenate([[True], x[1:] != x[:-1]])  # first of each run of ties
    f = np.asarray(cdf(x[new]), dtype=float)[np.cumsum(new) - 1]
    steps = np.arange(f.size + 1) / f.size
    return float(max((steps[1:] - f).max(), (f - steps[:-1]).max()))


def ks_two_sample(a, b) -> float:
    """Exact two-sided Kolmogorov-Smirnov distance between two samples."""
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def ks_radial(radii: np.ndarray, g: int) -> float:
    """KS distance of the moduli radii to the product radius law of g."""
    return ks_one_sample(radii, functools.partial(_radial_cdf, g))


def grid_deviation(angles: np.ndarray, g: int) -> float:
    """Largest distance of an argument from the grid {pi*j/g}."""
    spacing = math.pi / g
    return float(np.abs(angles - spacing * np.rint(angles / spacing)).max())


def uniform_angle_ks(angles: np.ndarray) -> float:
    """KS distance of arg/(2*pi) mod 1 to the uniform law."""
    return ks_one_sample(np.mod(angles / (2.0 * math.pi), 1.0), lambda t: np.clip(t, 0.0, 1.0))


def band_mass(radii: np.ndarray, r: float, epsilon: float) -> float:
    """Fraction of moduli in the band r-eps < |z| < r+eps."""
    if r <= 0:
        raise ValueError("degenerate-circle law needs a radius > 0")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if radii.size == 0:
        return 0.0
    return float(np.mean((radii > r - epsilon) & (radii < r + epsilon)))
