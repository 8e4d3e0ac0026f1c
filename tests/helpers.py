"""Independent oracles and a CLI runner used only by the test suite.

orbit_walk is the pure-Python enumeration of the orbits of t -> t*k (mod n')
that the vectorized kcirculant.numtheory.eigen_partition is checked against.
product_tail is the nested-quadrature tail of a product of exponentials that
the Gil-Pelaez radial CDF in kcirculant.limits is checked against; quad_smooth
is the adaptive quadrature under it. The modified Bessel function K1 here is a
from-scratch series/asymptotic implementation, deliberately sharing nothing
with the scipy K1 that kcirculant.extremes.kbar evaluates. Worst-case relative
error is below 1e-8 on (0, 40] (largest at the z = 8 crossover), verified
against frozen high-precision reference values in test_extremes.
reference_oracle_sweep solves the oracle sweep one sample at a time; the
stacked kcirculant.montecarlo.oracle_sweep must reproduce its report byte for
byte.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.integrate

from kcirculant import spectral
from kcirculant.montecarlo import ExperimentReport
from kcirculant.seeding import derive_trial_seed

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


class QuadratureError(RuntimeError):
    """An integral could not be evaluated to the requested accuracy."""


def quad_smooth(f, lo, hi, *, epsrel=1e-11, epsabs=0.0, accept_abs=1e-10, limit=300):
    """Integrate a smooth scalar function on [lo, hi] with Gauss-Kronrod panels.

    Tolerances are pushed hard; with full_output the backend reports trouble
    through its return value instead of warning. A flagged result is still
    accepted when its error estimate beats accept_abs or a 1e-9 relative
    margin, otherwise QuadratureError reports the achieved error.
    """
    out = scipy.integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                               limit=limit, full_output=True)
    val, err = out[0], out[1]
    flagged = len(out) > 3
    if flagged and err > max(accept_abs, abs(val) * 1e-9):
        raise QuadratureError(
            f"quadrature on [{lo:g}, {hi:g}] achieved absolute error {err:.3e}"
        )
    return val, err


def orbit_walk(n_prime: int, k: int) -> dict:
    """Walk every orbit of t -> t*k (mod n') one element at a time.

    Returns blocks (sorted tuples by ascending smallest member), sizes, g1,
    conjugate_block and upsilon, the same quantities EigenPartition exposes.
    """
    m = n_prime
    kp = k % m if m > 1 else 0
    seen = bytearray(m)
    blocks = []
    block_of = [0] * m
    for x in range(m):
        if seen[x]:
            continue
        seen[x] = 1
        members = [x]
        y = x * kp % m
        while y != x:
            seen[y] = 1
            members.append(y)
            y = y * kp % m
        members.sort()
        for t in members:
            block_of[t] = len(blocks)
        blocks.append(tuple(members))
    sizes = tuple(len(b) for b in blocks)
    g1 = sizes[block_of[1]] if m > 1 else 1
    return {"blocks": tuple(blocks), "sizes": sizes, "g1": g1,
            "conjugate_block": tuple(block_of[(m - b[0]) % m] for b in blocks),
            "upsilon": Fraction(sum(s for s in sizes if s < g1), m)}


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


def reference_oracle_sweep(n_max: int, samples_per_pair: int, master_seed: int,
                           tol_factor: float = 1e-7, fuzz: float = 0.0) -> ExperimentReport:
    """The oracle sweep with one formula spectrum and one dense solve per sample.

    Same pairs, seeds, matching and report as kcirculant.montecarlo.oracle_sweep,
    without its argument checks and without stacking samples.
    """
    pairs = [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]
    trials = []
    failures = []
    worst = 0.0
    for idx, (n, k) in enumerate(pairs):
        tol = tol_factor * n
        pair_worst = 0.0
        pair_scatter = 0.0
        ok = True
        for s in range(samples_per_pair):
            rng = np.random.default_rng(derive_trial_seed(master_seed,
                                                          idx * samples_per_pair + s))
            a = rng.standard_normal(n)
            spectrum = spectral.formula_spectrum(a, k, n)
            dense = spectral.dense_spectrum_oracle(spectral.build_matrix(a, k, n))
            nonzero = spectrum.eigenvalues[spectrum.zero_multiplicity:]
            if fuzz:
                nonzero = nonzero + fuzz
            if spectrum.zero_multiplicity == 0:
                dist, matched = spectral.spectra_match(nonzero, dense, tol)
                ok = ok and matched
            else:
                from scipy.optimize import linear_sum_assignment

                cost = np.abs(nonzero[:, None] - dense[None, :])
                rows, cols = linear_sum_assignment(cost)
                dist = float(cost[rows, cols].max()) if rows.size else 0.0
                leftover = np.delete(dense, cols)
                scale = max(1.0, float(np.abs(spectrum.dft).max()))
                centroid = abs(leftover.mean())
                scatter = float(np.abs(leftover).max())
                pair_scatter = max(pair_scatter, scatter)
                ok = ok and dist <= tol and centroid <= 1e-8 * scale \
                    and scatter <= 0.05 * scale and leftover.size == spectrum.zero_multiplicity
            pair_worst = max(pair_worst, dist)
        record = {"n": n, "k": k, "max_distance": pair_worst,
                  "zero_multiplicity": spectrum.zero_multiplicity, "ok": ok}
        if spectrum.zero_multiplicity:
            record["zero_cluster_scatter"] = pair_scatter
        worst = max(worst, pair_worst)
        trials.append(record)
        if not ok:
            failures.append({"n": n, "k": k, "max_distance": pair_worst})

    aggregates = {"pairs": len(pairs), "samples_per_pair": samples_per_pair,
                  "max_distance": worst, "failures": len(failures),
                  "failure_list": failures}
    config = {"kind": "oracle_sweep", "n_max": n_max,
              "samples_per_pair": samples_per_pair, "master_seed": master_seed,
              "tol_factor": tol_factor, "fuzz": fuzz}
    return ExperimentReport(config=config, hypothesis={}, trials=trials,
                            aggregates=aggregates, passed=not failures)
