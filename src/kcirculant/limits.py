"""Limiting spectral laws, ESD extraction, and empirical-vs-limit distances.

Three candidate limit laws for the scaled eigenvalue cloud: a product-radius
law with angles on the 2g-th roots of unity, the same radius with a uniform
angle, and a circle of fixed radius exp(-gamma/2). The product radius is
(E_1 * ... * E_g)^(1/2g) for unit exponentials E_j. Its CDF at r is F(x) =
P(X <= x) at x = 2g log r, where X = log(E_1 * ... * E_g) has characteristic
function phi(t) = Gamma(1+it)^g, so one Gil-Pelaez sum serves all radii:
F(x) = 1/2 - (1/pi) int_0^T |phi|/t sin(arg phi - t x) dt, |phi(T)|/T < e^-40,
on 16-node Gauss-Legendre panels at most 8 / max(8, |x| + 3g) wide (|x| + 3g
bounds the phase rate), in blocks of 64 radii. Where a tail bound puts F or
1 - F under 1e-16 it is exactly 0 or 1, so the grid never aliases there;
elsewhere the error is about 1e-15, absolute. g = 1 keeps 1 - exp(-r^2),
and g = 2 takes the closed form 1 - z K_1(z), z = 2 r^2, under the same guards.
The special functions are numpy code here: e^z K_1(z) by the trapezoidal
rule (_k1e), log Gamma(1 + it) by Stirling's series and the exact modulus
(_log_gamma_1_plus_it), and the bound Q(g, y), the regularized upper
incomplete gamma function at integer g, by its finite sum (_gamma_q).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "DEGENERATE_RADIUS",
    "LsdLaw",
    "EsdSample",
    "esd",
    "ks_one_sample",
    "ks_two_sample",
    "ks_radial",
    "angular_test",
    "band_mass",
]

EULER_GAMMA = 0.57721566490153286061
DEGENERATE_RADIUS = math.exp(-EULER_GAMMA / 2.0)  # 0.74930600...

_ROOTS = "roots_of_unity_product"
_UNIFORM = "uniform_circle_product"
_DEGENERATE = "degenerate_circle"

_NEGLIGIBLE = 1e-16  # a CDF or tail bound below this reads as exact 0 or 1
_K1_CUT = 42.0  # K_1 needs the nodes until z (cosh u - 1) reaches this: exp(-42) < 1e-18
_K1_ROWS = 4096  # z per block of the K_1 sums
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


@dataclass(frozen=True)
class LsdLaw:
    """One of the three limit laws for the scaled eigenvalue cloud."""

    variant: str
    g: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.variant in (_ROOTS, _UNIFORM):
            if self.g is None or self.g < 1:
                raise ValueError("product laws need an integer g >= 1")
        elif self.variant == _DEGENERATE:
            if self.radius is None or self.radius <= 0:
                raise ValueError("degenerate-circle law needs a radius > 0")
        else:
            raise ValueError(f"unknown law variant {self.variant!r}")

    @classmethod
    def roots_of_unity_product(cls, g: int) -> "LsdLaw":
        """Radius (prod of g exponentials)^(1/2g), angle uniform on the 2g-th roots of unity."""
        return cls(_ROOTS, g=int(g))

    @classmethod
    def uniform_circle_product(cls, g: int) -> "LsdLaw":
        """Same radius, angle uniform on the whole circle."""
        return cls(_UNIFORM, g=int(g))

    @classmethod
    def degenerate_circle(cls, radius: float | None = None) -> "LsdLaw":
        """Fixed radius (default exp(-gamma/2)), angle uniform on the circle."""
        return cls(_DEGENERATE, radius=DEGENERATE_RADIUS if radius is None else float(radius))

    @property
    def is_product(self) -> bool:
        return self.variant in (_ROOTS, _UNIFORM)


@dataclass
class EsdSample:
    """Eigenvalues of the 1/sqrt(n)-scaled matrix as a point cloud.

    structural_zeros_in_points counts leading exact-zero points that are
    structural (not data); radial statistics skip exactly those.
    """

    points: np.ndarray
    n: int
    structural_zeros_in_points: int = 0

    def nonstructural_points(self) -> np.ndarray:
        return self.points[self.structural_zeros_in_points :]


def _radial_cdf(g: int, radii: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        if g == 1:
            return -np.expm1(-np.square(radii))
        x = 2 * g * np.log(radii)
        high = _gamma_q(g, -np.minimum(x, 0.0))             # E_j >=_st U_j
        tail = np.minimum(g * np.exp(-np.exp(x / g)), 1.0)  # P(max E_j > e^(x/g))
    out = (tail < _NEGLIGIBLE).astype(float)
    live = np.flatnonzero((high >= _NEGLIGIBLE) & (tail >= _NEGLIGIBLE))
    if g == 2:  # P(E_1 E_2 > y) = 2 sqrt(y) K_1(2 sqrt(y)) at y = r^4
        z = 2.0 * np.square(radii[live])
        out[live] = 1.0 - z * np.exp(-z) * _k1e(z)
    else:
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


def _k1e(z: np.ndarray) -> np.ndarray:
    """e^z K_1(z) at each finite z > 0 of a 1-D array.

    The trapezoidal rule on e^z K_1(z) = int_0^inf exp(-z (cosh u - 1)) cosh u du,
    which converges exponentially in the step (Trefethen & Weideman 2014): step
    h = min(0.2, 0.5 / sqrt(z)), nodes u = j h up to where z (cosh u - 1)
    reaches 42. Each value sums a set of nodes fixed by its own z, in a fixed
    order, so it never depends on the other z in the call. The z go through
    in blocks of 4096, and no 2-D temporary holds more than 32 values per z.
    """
    h = np.minimum(0.2, 0.5 / np.sqrt(z))
    out = np.empty_like(z)
    # z > 6.25: nodes of its own step; at most 20 are needed, and 32 are summed
    own = np.flatnonzero(h < 0.2)
    for lo in range(0, own.size, _K1_ROWS):
        idx = own[lo:lo + _K1_ROWS]
        a = np.expm1(h[idx, None] * np.arange(32))
        c1 = 0.5 * a * (a / (1.0 + a))  # cosh u - 1 without cancellation
        # past -700 a term is 0 to the sum, and numpy's exp is slow in subnormals
        terms = np.exp(np.maximum(z[idx, None] * -c1, -700.0)) * (1.0 + c1)
        out[idx] = h[idx] * (terms.sum(axis=1) - 0.5)  # u = 0 has half weight
    # z <= 6.25 shares the nodes u = 0.2 j, taken in runs of 8 after j = 0. A z
    # sums every run that starts by its last node, so its terms stay above
    # e^-200, and with the z needing most nodes first, a run's z are a prefix.
    shared = np.flatnonzero(h == 0.2)
    last = np.arccosh(1.0 + _K1_CUT / z[shared]) / 0.2
    order = np.argsort(-last, kind="stable")
    shared, last = shared[order], last[order]
    for lo in range(0, shared.size, _K1_ROWS):
        idx, block_last = shared[lo:lo + _K1_ROWS], last[lo:lo + _K1_ROWS]
        neg_z = -z[idx]
        starts = np.arange(1, block_last[0] + 1, 8)
        a = np.expm1(0.2 * np.arange(1, 8 * starts.size + 1))
        c1 = (0.5 * a * (a / (1.0 + a))).reshape(-1, 8, 1)
        total = np.full_like(neg_z, 0.5)
        joined = np.searchsorted(-block_last, -starts, side="right").tolist()
        for k, run in zip(joined, c1):
            terms = run * neg_z[:k]
            np.exp(terms, out=terms)
            terms *= 1.0 + run
            terms = terms[0::2] + terms[1::2]  # the same pairwise order for every z
            terms = terms[0::2] + terms[1::2]
            total[:k] += terms[0] + terms[1]
        out[idx] = 0.2 * total
    return out


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


def esd(spectrum) -> EsdSample:
    """Scale a spectrum by 1/sqrt(n) into an ESD point cloud.

    Structural zeros are part of the distribution, so they stay in the points.
    """
    n = spectrum.params.n
    return EsdSample(points=spectrum.eigenvalues / math.sqrt(n), n=n,
                     structural_zeros_in_points=spectrum.zero_multiplicity)


def ks_one_sample(values, cdf) -> float:
    """Exact two-sided Kolmogorov-Smirnov distance to a CDF callable."""
    x = np.sort(np.asarray(values, dtype=float))
    m = x.size
    if m == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(m + 1) / m
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


def ks_radial(sample: EsdSample, law: LsdLaw) -> float:
    """KS distance between the sample's radial empirical law and the limit CDF.

    Structural zeros are skipped (the product laws put no mass at 0); genuine
    zero-valued points in a hand-built sample are kept.
    """
    if not law.is_product:
        raise ValueError("radial KS applies to the product laws")
    radii = np.sort(np.abs(sample.nonstructural_points()))
    if radii.size == 0:
        raise ValueError("empty sample")
    new = np.concatenate([[True], radii[1:] != radii[:-1]])  # first of each run of ties
    f = _radial_cdf(law.g, radii[new])[np.cumsum(new) - 1]
    steps = np.arange(f.size + 1) / f.size
    return float(max((steps[1:] - f).max(), (f - steps[:-1]).max()))


def angular_test(sample: EsdSample, law: LsdLaw) -> dict:
    """Angular statistics of the nonzero points against the law's angle part.

    Roots-of-unity laws: the largest deviation of any argument from the grid
    {pi*j/g} plus per-direction counts. Uniform-angle laws: KS distance of
    arg/(2*pi) mod 1 to the uniform law.
    """
    pts = sample.nonstructural_points()
    pts = pts[np.abs(pts) > 0]
    if pts.size == 0:
        raise ValueError("no nonzero points")
    args = np.angle(pts)
    if law.variant == _ROOTS:
        spacing = math.pi / law.g
        nearest = np.rint(args / spacing)
        deviation = np.abs(args - spacing * nearest)
        counts = np.bincount(nearest.astype(int) % (2 * law.g), minlength=2 * law.g)
        return {"max_grid_deviation": float(deviation.max()),
                "per_direction_counts": counts.tolist()}
    u = np.mod(args / (2.0 * math.pi), 1.0)
    return {"uniform_ks": ks_one_sample(u, lambda t: np.clip(t, 0.0, 1.0))}


def band_mass(sample: EsdSample, r: float, epsilon: float) -> float:
    """Fraction of points (structural zeros excluded) with r-eps < |z| < r+eps."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pts = sample.nonstructural_points()
    if pts.size == 0:
        return 0.0
    radii = np.abs(pts)
    return float(np.mean((radii > r - epsilon) & (radii < r + epsilon)))
