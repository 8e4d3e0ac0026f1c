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
    from scipy.special import gammaincc, k1

    with np.errstate(divide="ignore", over="ignore"):
        if g == 1:
            return -np.expm1(-np.square(radii))
        x = 2 * g * np.log(radii)
        high = gammaincc(g, -np.minimum(x, 0.0))            # E_j >=_st U_j
        tail = np.minimum(g * np.exp(-np.exp(x / g)), 1.0)  # P(max E_j > e^(x/g))
    out = (tail < _NEGLIGIBLE).astype(float)
    live = np.flatnonzero((high >= _NEGLIGIBLE) & (tail >= _NEGLIGIBLE))
    if g == 2:  # P(E_1 E_2 > y) = 2 sqrt(y) K_1(2 sqrt(y)) at y = r^4
        z = 2.0 * np.square(radii[live])
        out[live] = 1.0 - z * k1(z)
    else:
        for idx in np.split(live, range(64, live.size, 64)):  # bounds the temporaries
            per_unit = math.ceil(max(8.0, np.abs(x[idx]).max(initial=0.0) + 3 * g) / 8.0)
            t, arg_phi, weight = _inversion_grid(g, per_unit)
            out[idx] = 0.5 - np.sin(arg_phi - np.outer(x[idx], t)) @ weight / math.pi
    return np.clip(out, 1.0 - tail, high)


@functools.lru_cache(maxsize=64)
def _inversion_grid(g: int, per_unit: int):
    """Nodes t, arg phi(t) and weights w |phi(t)|/t, panels 1/per_unit wide."""
    from scipy.special import loggamma

    t = np.geomspace(1e-6, 100.0, 801)  # T to 2.3%; it shrinks like 7 / sqrt(g)
    horizon = t[np.argmax(g * loggamma(1 + 1j * t).real - np.log(t) < -40.0)]
    panels = math.ceil(horizon * per_unit)
    u, w = np.polynomial.legendre.leggauss(16)
    t = ((np.arange(panels)[:, None] + (u + 1) / 2) * (horizon / panels)).ravel()
    log_phi = g * loggamma(1 + 1j * t)
    weight = np.tile(w * horizon / (2 * panels), panels) * np.exp(log_phi.real) / t
    return t, log_phi.imag, weight


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
