"""Independent oracles and a CLI runner used only by the test suite.

orbit_walk is the pure-Python enumeration of the orbits of t -> t*k (mod n')
that the vectorized kcirculant.numtheory.eigen_partition is checked against,
through the tuple views blocks_of and conjugate_block_of;
lower_order_count_ie counts the elements in smaller orbits by
inclusion-exclusion instead, and gcd_power_bound checks the gcd(k^b +- 1,
k^c +- 1) bound of the counting lemmas. dft_naive is the O(n^2) DFT,
block_products the complex per-orbit products Pi_j, and det_probe_oracle
compares LU determinants of lambda*I - A with the factorized characteristic
polynomial. reference_formula_spectrum is the first, concatenate-based
assembly of the exact spectrum, which formula_spectrum must match bit for
bit; reference_ks_radial and reference_iid_max_reference are likewise the
first forms of ks_radial (np.unique over the radii) and of the i.i.d.
reference (two exponential draws per trial). lsd_sample draws from a limit
law and export_points_csv writes such a cloud. product_tail is the
nested-quadrature tail of a product of exponentials that the Gil-Pelaez
radial CDF in kcirculant.limits is checked against; quad_smooth is the
adaptive quadrature under it. The modified Bessel function K1 here is a
from-scratch series/asymptotic implementation, deliberately sharing nothing
with the trapezoidal-rule K1 (kcirculant.limits._k1e) that
kcirculant.extremes.kbar and the g = 2 radial CDF evaluate. Worst-case
relative error is below 1e-8 on (0, 40] (largest at the z = 8 crossover),
verified against frozen high-precision reference values in test_extremes.
reference_oracle_sweep solves the oracle sweep one sample at a time; the
stacked kcirculant.montecarlo.oracle_sweep must reproduce its report byte
for byte.
"""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.integrate

from kcirculant import spectral
from kcirculant._textio import write_text
from kcirculant.extremes import normalization, standardize_radius
from kcirculant.limits import _ROOTS, LsdLaw, _radial_cdf
from kcirculant.montecarlo import ExperimentReport
from kcirculant.numtheory import (
    EigenPartition,
    KCirculantParams,
    factorize,
    multiplicative_order,
    structure,
)
from kcirculant.seeding import derive_trial_seed
from kcirculant.spectral import (
    TWO_PI,
    _log_block_products,
    _reduced_structure,
    as_input_sequence,
    build_matrix,
    formula_spectrum,
)

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
    conjugate_block and upsilon: what blocks_of and conjugate_block_of read
    from an EigenPartition, and its sizes, g1 and upsilon.
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


def blocks_of(partition: EigenPartition) -> tuple[tuple[int, ...], ...]:
    """The partition's blocks as tuples of members, in block order."""
    return tuple(tuple(b.tolist()) for b in np.split(partition.members, partition.starts[1:]))


def conjugate_block_of(partition: EigenPartition) -> tuple[int, ...]:
    """Index of the block holding the reflections of each block, as a tuple."""
    return tuple(partition.conjugate.tolist())


def lower_order_count_ie(params: KCirculantParams) -> int:
    """Count of x in Z_{n'} with orbit size < g1, by inclusion-exclusion.

    Alternating sum of gcd(k^(g1/l) - 1, n') over square-free products l of
    the distinct primes of g1. Powers are taken mod n' first; gcd(a, n')
    only depends on a mod n', so nothing ever leaves machine words.
    """
    m = params.n_prime
    if m == 1:
        return 0
    kp = params.k % m
    g1 = multiplicative_order(kp, m)
    primes = [p for p, _ in factorize(g1)]
    total = 0
    for mask in range(1, 1 << len(primes)):
        ell = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                ell *= p
                bits += 1
        term = math.gcd(pow(kp, g1 // ell, m) - 1, m)
        total += term if bits % 2 else -term
    return total


def gcd_power_bound(k: int, b: int, c: int, sign_b: int, sign_c: int) -> tuple[int, int, bool]:
    """Evaluate gcd(k^b + sign_b, k^c + sign_c) against the bound k^gcd(b,c) + 1.

    Returns (lhs, bound, lhs <= bound); the inequality holds for every k >= 2
    and all four sign combinations.
    """
    if k < 2 or b < 1 or c < 1:
        raise ValueError("need k >= 2 and b, c >= 1")
    if sign_b not in (-1, 1) or sign_c not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    lhs = math.gcd(k**b + sign_b, k**c + sign_c)
    bound = k ** math.gcd(b, c) + 1
    return lhs, bound, lhs <= bound


def dft_naive(a, t_values=None) -> np.ndarray:
    """Direct O(n^2) evaluation of the same DFT, kept as an independent oracle.

    Pass t_values to evaluate only selected coefficients.
    """
    a = as_input_sequence(a)
    n = a.size
    ts = np.arange(n) if t_values is None else np.asarray(t_values, dtype=int)
    ls = np.arange(n)
    out = np.empty(ts.size, dtype=complex)
    for i, t in enumerate(ts):
        out[i] = np.sum(a * np.exp(2j * np.pi * (t % n) * ls / n))
    return out


def _assemble_products(log_mod: np.ndarray, theta: np.ndarray,
                       partition: EigenPartition) -> np.ndarray:
    """Materialize complex block products; huge blocks may overflow to inf."""
    with np.errstate(over="ignore"):
        mod = np.exp(log_mod)
    out = np.empty(log_mod.shape, dtype=complex)
    sc = partition.self_conjugate  # indexes the block axis, first in each .T view
    out.T[sc] = mod.T[sc] * np.where(theta.T[sc] == 0.0, 1.0, -1.0)
    nsc = ~sc
    out.T[nsc] = mod.T[nsc] * (np.cos(theta.T[nsc]) + 1j * np.sin(theta.T[nsc]))
    return out


def block_products(dft_values, params: KCirculantParams) -> np.ndarray:
    """Products Pi_j of DFT values lambda_{t * n/n'} over each orbit block.

    The blocks are those of the cached structure of (params.n, params.k).
    """
    lam = np.asarray(dft_values, dtype=complex)
    if lam.size != params.n:
        raise ValueError("DFT length must equal n")
    _, partition, idx = structure(params.n, params.k)
    log_mod, theta = _log_block_products(lam, partition, idx)
    return _assemble_products(log_mod, theta, partition)


def reference_formula_spectrum(a, k: int, n: int):
    """formula_spectrum assembled as it first was: log moduli of all n DFT
    values, per-root gathers, and one concatenate of zeros and roots.

    Returns (eigenvalues, dft, block_index, root_index); the library must
    reproduce every bit of each.
    """
    a = as_input_sequence(a, rows=True)
    params, partition, idx = _reduced_structure(n, k)
    lam = spectral.dft(a)
    _, theta = _log_block_products(lam, partition, idx)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(lam.take(idx, axis=-1)))
    log_mod = np.add.reduceat(logs, partition.starts, axis=-1)
    m = params.n_prime
    sizes = partition.sizes
    j_of = np.repeat(np.arange(sizes.size), sizes)
    r = np.arange(m) - partition.starts[j_of]
    inv = 1.0 / sizes[j_of]
    root_mod = np.exp(log_mod.take(j_of, axis=-1) * inv)
    ang = (theta.take(j_of, axis=-1) + TWO_PI * r) * inv
    roots = root_mod * (np.cos(ang) + 1j * np.sin(ang))
    zeros = n - m
    eigs = np.concatenate([np.zeros(a.shape[:-1] + (zeros,), complex), roots], axis=-1)
    block_index = np.concatenate([np.full(zeros, -1, dtype=np.int64), j_of])
    root_index = np.concatenate([np.arange(zeros, dtype=np.int64), r])
    return eigs, lam, block_index, root_index


def reference_ks_radial(sample, law: LsdLaw) -> float:
    """ks_radial with the distinct radii and their inverse from np.unique."""
    uniq, inverse = np.unique(np.sort(np.abs(sample.nonstructural_points())),
                              return_inverse=True)
    f = _radial_cdf(law.g, uniq)[inverse]
    steps = np.arange(f.size + 1) / f.size
    return float(max((steps[1:] - f).max(), (f - steps[:-1]).max()))


def reference_iid_max_reference(q: int, trials: int, master_seed: int) -> np.ndarray:
    """iid_max_reference drawing each trial's two exponential vectors separately."""
    maxima = np.empty(trials)
    for i in range(trials):
        gen = np.random.default_rng(derive_trial_seed(master_seed, i))
        maxima[i] = (gen.exponential(size=q) * gen.exponential(size=q)).max()
    return standardize_radius(maxima**0.25, normalization(q))


@dataclass
class DetProbe:
    point: complex
    det_lu: complex
    det_formula: complex
    rel_diff: float


def _safe_exp(z: complex) -> complex:
    if z.real > 700.0:
        return complex(math.inf, 0.0)
    if z.real < -745.0:
        return 0j
    return cmath.exp(z)


def det_probe_oracle(a, k: int, n: int, trial_points) -> list[DetProbe]:
    """Compare det(lambda*I - A) from LU elimination with the factorized form.

    Both sides are evaluated in log space on the 1/sqrt(n)-scaled matrix so
    dimensions up to a few hundred cannot overflow; rel_diff is
    |exp(log difference) - 1| with the phase reduced mod 2*pi. A probe that
    lands on the spectrum to machine precision is nudged deterministically
    and retried.
    """
    if n > 512:
        raise ValueError("determinant probes are capped at n <= 512")
    A = build_matrix(a, k, n)
    spectrum = formula_spectrum(a, k, n)
    _, partition, idx = _reduced_structure(n, k)
    log_mod, theta = _log_block_products(spectrum.dft, partition, idx)
    scale = math.sqrt(n)
    B = A / scale
    eye = np.eye(n)
    half_log_n = 0.5 * math.log(n)
    zeros = spectrum.zero_multiplicity

    out = []
    for point in trial_points:
        lam = complex(point)
        for _ in range(25):
            lam_s = lam / scale
            sign, logabs = np.linalg.slogdet(lam_s * eye - B)
            if sign != 0 and np.isfinite(logabs):
                break
            lam = lam * 1.000001 + 1e-9 * (1 + 1j)
        else:
            raise RuntimeError(f"could not move probe {point} off the spectrum")
        log_lu = complex(n * half_log_n + logabs, cmath.phase(complex(sign)))

        log_formula = zeros * cmath.log(lam) if zeros else 0j
        for j in range(partition.block_count):
            nj = int(partition.sizes[j])
            pi_scaled = _safe_exp(complex(log_mod[j] - nj * half_log_n, 0)) \
                * cmath.exp(1j * theta[j])
            factor = lam_s**nj - pi_scaled
            log_formula += cmath.log(factor) + nj * half_log_n

        delta = log_formula - log_lu
        d_im = math.remainder(delta.imag, TWO_PI)
        if abs(delta.real) > 1.0:
            rel = math.inf
        else:
            rel = abs(cmath.exp(complex(delta.real, d_im)) - 1.0)
        out.append(DetProbe(point=lam, det_lu=_safe_exp(log_lu),
                            det_formula=_safe_exp(log_formula), rel_diff=rel))
    return out


def lsd_sample(law: LsdLaw, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count i.i.d. points from the law; radius and angle independent."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if law.is_product:
        g = law.g
        radius = rng.exponential(1.0, size=(count, g)).prod(axis=1) ** (1.0 / (2 * g))
        if law.variant == _ROOTS:
            angles = (math.pi / g) * rng.integers(0, 2 * g, size=count)
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    else:
        radius = np.full(count, law.radius)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return radius * np.exp(1j * angles)


def export_points_csv(points, tags, path) -> None:
    """Write a point cloud as CSV rows re,im,tag (repr floats, reproducible)."""
    points = np.asarray(points, dtype=complex)
    lines = ["re,im,tag"]
    for z, tag in zip(points, tags):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{tag}")
    write_text(path, "\n".join(lines) + "\n")


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
                           fuzz: float = 0.0) -> ExperimentReport:
    """The oracle sweep with one formula spectrum and one dense solve per sample.

    Same pairs, seeds, matching and report as kcirculant.montecarlo.oracle_sweep,
    without its argument checks and without stacking samples.
    """
    pairs = [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]
    trials = []
    failures = []
    worst = 0.0
    for idx, (n, k) in enumerate(pairs):
        tol = 1e-7 * n
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
            dist, matched, leftover = spectral.spectra_match(nonzero, dense, tol)
            scale = max(1.0, float(np.abs(spectrum.dft).max()))
            centroid = abs(leftover.sum() / max(leftover.size, 1))
            scatter = float(np.abs(leftover).max(initial=0.0))
            pair_scatter = max(pair_scatter, scatter)
            ok = ok and matched and centroid <= 1e-8 * scale \
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
              "tol_factor": 1e-7, "fuzz": fuzz}
    return ExperimentReport(config=config, hypothesis={}, trials=trials,
                            aggregates=aggregates, passed=not failures)
