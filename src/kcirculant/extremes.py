"""Spectral-radius extreme-value machinery.

The standard Gumbel CDF exp(-e^(-x)), the normalizing constants used to center and
scale maxima of (E1*E2)^(1/4) variables, the tail probability P(E1*E2 > x) with its
large-x asymptotic, an i.i.d.-maximum reference sampler that serves as the convergence
yardstick for spectral-radius experiments, and the per-trial radii as CSV columns for
_textio.write_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import write_rows
from .limits import _k1e
from .seeding import derive_trial_seed

__all__ = [
    "GumbelNormalization",
    "gumbel_cdf",
    "normalization",
    "kbar",
    "kbar_asymptotic",
    "standardize_radius",
    "iid_max_reference",
    "export_radii_csv",
]


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-e^(-x)) of a scalar or an array."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-np.exp(-x))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GumbelNormalization:
    """Centering d_q and scale c_q for maxima of q draws of (E1*E2)^(1/4)."""

    q: int
    c_q: float
    d_q: float


def normalization(q: int) -> GumbelNormalization:
    """Normalizing constants c_q = (8 ln q)^(-1/2) and the matching d_q.

    d_q = sqrt(ln q / 2) * (1 + ln(ln q) / (4 ln q)) + ln(pi/2) / (2 sqrt(8 ln q)).
    Natural logarithms throughout; q >= 2 keeps ln q positive.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    log_q = math.log(q)
    c = (8.0 * log_q) ** -0.5
    d = math.sqrt(log_q / 2.0) * (1.0 + math.log(log_q) / (4.0 * log_q)) \
        + math.log(math.pi / 2.0) / (2.0 * math.sqrt(8.0 * log_q))
    return GumbelNormalization(q=int(q), c_q=c, d_q=d)


def kbar(x: float) -> float:
    """Tail probability P(E1*E2 > x) = integral exp(-y - x/y) dy over (0, inf).

    The integral is s K_1(s) at s = 2 sqrt(x), with K_1 the modified Bessel
    function of the second kind that the g = 2 radial CDF uses too (limits._k1e:
    its ascending series up to s = 2, the trapezoidal rule above), to relative
    accuracy near 1e-13, most of it exp(-s) at large s. It is exactly 0 once
    s > 745, where exp(-s) underflows, and at most 1: below x = 1e-10 rounding
    would pass 1 by up to 3 ulp.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    s = 2.0 * math.sqrt(x)
    if s > 745.0:
        return 0.0
    return min(1.0, float(s * math.exp(-s) * _k1e(np.array([s]))[0]))


def kbar_asymptotic(x: float) -> float:
    """Large-x form sqrt(pi) * x^(1/4) * exp(-2 sqrt(x)) of the same tail."""
    if x <= 0:
        raise ValueError("x must be positive")
    return math.sqrt(math.pi) * x**0.25 * math.exp(-2.0 * math.sqrt(x))


def standardize_radius(sp, norm: GumbelNormalization):
    """Center and scale a spectral radius: (sp - d_q) / c_q."""
    return (sp - norm.d_q) / norm.c_q


def iid_max_reference(q: int, trials: int, master_seed: int) -> np.ndarray:
    """Standardized maxima of q i.i.d. (E1*E2)^(1/4) draws, one per trial.

    Each trial draws from its own stream derived from master_seed, so results
    do not depend on execution order.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    norm = normalization(q)
    maxima = np.empty(trials)
    for i in range(trials):
        # one 2q draw continues the stream exactly as two q draws would
        e = np.random.default_rng(derive_trial_seed(master_seed, i)).standard_exponential(2 * q)
        maxima[i] = (e[:q] * e[q:]).max()
    # max of the quarter powers = quarter power of the max
    return standardize_radius(maxima**0.25, norm)


def export_radii_csv(records, path) -> None:
    """Write per-trial radius records as CSV rows trial,seed,sp,standardized.

    records is an iterable of dicts with those keys (experiment reports carry one per
    trial); seeds are 64-bit and may pass 2^63. _textio.write_rows writes floats as
    their repr, so equal runs give byte-identical files.
    """
    records = list(records)
    casts = {"trial": int, "seed": int, "sp": float, "standardized": float}
    write_rows(path, ",".join(casts),
               [[cast(rec[key]) for rec in records] for key, cast in casts.items()])
