"""Independent oracles and a CLI runner used only by the test suite.

product_tail is the nested-quadrature tail of a product of exponentials that
the Gil-Pelaez radial CDF in kcirculant.limits is checked against. The
modified Bessel function K1 here is a from-scratch series/asymptotic
implementation, deliberately sharing nothing with the production quadrature it
cross-checks. Worst-case relative error is below 1e-8 on (0, 40] (largest at
the z = 8 crossover), verified against frozen high-precision reference values
in test_extremes.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

from kcirculant._quadrature import quad_smooth

EULER = 0.57721566490153286061
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args, timeout=None):
    """Run a fresh interpreter that imports kcirculant from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def kcirc(*args, timeout=None):
    """Run the kcirc command line in a fresh process."""
    return run_python("-m", "kcirculant", *args, timeout=timeout)


def bessel_i1(z: float) -> float:
    """Ascending series for the modified Bessel function I1."""
    half = z / 2.0
    term = half
    total = term
    zz = half * half
    for k in range(1, 80):
        term *= zz / (k * (k + 1))
        total += term
        if term < 1e-18 * total:
            break
    return total


def _k1_series(z: float) -> float:
    half = z / 2.0
    zz = half * half
    psi_a = -EULER        # digamma(1)
    psi_b = 1.0 - EULER   # digamma(2)
    coeff = 1.0           # (z^2/4)^k / (k! (k+1)!)
    total = (psi_a + psi_b) * coeff
    for k in range(1, 80):
        coeff *= zz / (k * (k + 1))
        psi_a += 1.0 / k
        psi_b += 1.0 / (k + 1)
        term = (psi_a + psi_b) * coeff
        total += term
        if abs(term) < 1e-19 * abs(total):
            break
    return math.log(half) * bessel_i1(z) + 1.0 / z - half / 2.0 * total


def _k1_asymptotic(z: float) -> float:
    prefactor = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    total = 1.0
    term = 1.0
    for k in range(1, 40):
        factor = (4.0 - (2 * k - 1) ** 2) / (8.0 * z * k)
        if abs(factor) >= 1.0:  # truncate the divergent tail at its smallest term
            break
        term *= factor
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return prefactor * total


def bessel_k1(z: float) -> float:
    """Modified Bessel function K1: series below z = 8, asymptotic above."""
    if z <= 0:
        raise ValueError("K1 needs z > 0")
    return _k1_series(z) if z <= 8.0 else _k1_asymptotic(z)


def kbar_closed_form(x: float) -> float:
    """Closed form 2*sqrt(x)*K1(2*sqrt(x)) for the tail P(E1*E2 > x)."""
    s = math.sqrt(x)
    return 2.0 * s * bessel_k1(2.0 * s)


def product_tail(g: int, y: float) -> float:
    """P(E_1 * ... * E_g > y) for independent unit exponentials.

    Evaluated by the recursion P_g(y) = integral of e^(-t) P_{g-1}(y/t) dt
    with P_1(y) = e^(-y), on the log axis t = e^u so the integrand is smooth
    and unimodal; g - 1 nested adaptive quadratures, so the cost grows
    exponentially with g (keep g <= 3). Absolute error is far below 1e-10.
    """
    if y == 0:
        return 1.0
    # -log of the overall scale; at this depth the tail underflows anyway
    decay = g * y ** (1.0 / g)
    if decay > 745.0:
        return 0.0
    if g == 1:
        return math.exp(-y)
    u_hi = math.log(50.0 + 2.0 * decay + math.log1p(y))
    budget = decay + 46.0
    u_lo = math.log(y) - (g - 1.0) * math.log(budget / (g - 1.0))
    u_lo = max(-46.0, min(u_lo, u_hi - 2.0))

    def integrand(u: float) -> float:
        t = math.exp(u)
        return math.exp(u - t) * product_tail(g - 1, y / t)

    val, _ = quad_smooth(integrand, u_lo, u_hi, epsrel=1e-10, accept_abs=1e-10)
    return min(max(val, 0.0), 1.0)
