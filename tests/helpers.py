"""Independent oracles and a CLI runner used only by the test suite.

orbit_walk is the pure-Python enumeration of the orbits of t -> t*k (mod n')
that the vectorized kcirculant.numtheory.eigen_partition is checked against,
through the tuple view blocks_of of the members that members_of decodes from its root layout;
lower_order_count_ie counts the elements in smaller orbits by
inclusion-exclusion instead, and gcd_power_bound checks the gcd(k^b +- 1,
k^c +- 1) bound of the counting lemmas. dft is all n DFT values from the real FFT
and dft_naive the O(n^2) DFT, the full-length references of the library's
n'-point transform of the input summed mod n'; block_products is the complex
per-orbit products Pi_j and full_dft_polar the polar roots, both read off a
full DFT, and det_probe_oracle compares LU determinants of lambda*I - A with
the factorized characteristic polynomial. reference_formula_spectrum is the
first, concatenate-based assembly of the exact spectrum, which
formula_spectrum must match bit for bit; reference_ks_radial and
reference_iid_max_reference are likewise the first forms of ks_radial
(np.unique over the radii) and of the i.i.d. reference (two exponential
draws per trial). lsd_sample draws from a limit law and export_points_csv
writes such a cloud. product_tail is the
nested-quadrature tail of a product of exponentials that the Gil-Pelaez
radial CDF in kcirculant.limits is checked against; quad_smooth is the
adaptive quadrature under it. The modified Bessel function K1 here is a
from-scratch series/asymptotic implementation, deliberately sharing no code
with kcirculant.limits._e1e2 (a Horner-evaluated series below z = 2; above
it one shared 22-node trapezoidal row of step 0.4 in v = 2 sqrt(z) sinh(u/2))
whose two sides are the g = 2 radial CDF and kcirculant.extremes.kbar. Below
z = 2 both sum the same ascending series, so there the frozen mpmath values
and scipy are the independent references. Worst-case
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
from kcirculant._textio import write_rows
from kcirculant.extremes import normalization, standardize_radius
from kcirculant.limits import DEGENERATE_RADIUS, _radial_cdf
from kcirculant.montecarlo import ExperimentReport
from kcirculant.numtheory import (
    EigenPartition,
    KCirculantParams,
    factorize,
    orbit_summary,
    structure,
)
from kcirculant.seeding import derive_trial_seed
from kcirculant.spectral import (
    TWO_PI,
    _log_block_products,
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
    conjugate_block (the index of the block holding each block's reflections
    n' - t) and upsilon: what blocks_of reads from an EigenPartition, its sizes,
    g1 and self_conjugate (conjugate_block[j] == j), and upsilon.
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


def members_of(partition: EigenPartition) -> np.ndarray:
    """Every block's members, concatenated in block order, decoded from the root layout:
    t = fold where mirror is 1 and n' - fold where it is -1."""
    fold = partition.fold.astype(np.int64)
    return np.where(partition.mirror < 0, partition.n_prime - fold, fold)


def blocks_of(partition: EigenPartition) -> tuple[tuple[int, ...], ...]:
    """The partition's blocks as tuples of members, in block order."""
    return tuple(tuple(b.tolist()) for b in np.split(members_of(partition), partition.starts[1:]))


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
    g1 = orbit_summary(params).g1
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


def dft(a) -> np.ndarray:
    """All n DFT values lambda_t = sum_l a_l exp(2*pi*i*t*l/n).

    Built from the half-spectrum real FFT so that lambda_{n-t} is the exact
    floating-point conjugate of lambda_t. A 2-D stack of inputs is transformed
    row by row; n = 1 is allowed, for the sum of the input mod n' = 1.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    half = n // 2
    r = np.fft.rfft(a)
    lam = np.empty(a.shape, dtype=complex)
    lam[..., : half + 1] = np.conj(r)
    lam[..., half + 1 :] = r[..., 1 : n - half][..., ::-1]
    return lam


def half_of(lam: np.ndarray, partition: EigenPartition) -> np.ndarray:
    """lambda_{t*n/n'} for t = 0..n'//2 from all n DFT values: the half spectrum the
    formula's log products read."""
    m = partition.n_prime
    return lam[..., :: lam.shape[-1] // m][..., : m // 2 + 1]


def full_dft_polar(a, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """formula_polar's (moduli, arguments) with the block products read off all n DFT
    values at the multiples of n/n', not off the n'-point DFT of the input summed mod n'."""
    partition = structure(n, k % n)
    log_mod, theta = _log_block_products(half_of(dft(a), partition), partition)
    sizes, inv = partition.sizes, 1.0 / partition.sizes
    rank = np.arange(partition.n_prime) - np.repeat(partition.starts, sizes)
    ang = np.repeat(theta, sizes, axis=-1) + TWO_PI * rank
    return np.repeat(np.exp(log_mod * inv), sizes, axis=-1), ang * np.repeat(inv, sizes)


def dft_naive(a, t_values=None) -> np.ndarray:
    """Direct O(n^2) evaluation of the same DFT, kept as an independent oracle.

    Pass t_values to evaluate only selected coefficients. Each phase t*l is reduced mod n
    in integers, so no phase loses bits to a large t*l: the error stays near eps * sum|a_l|.
    """
    a = as_input_sequence(a)
    n = a.size
    ts = np.arange(n) if t_values is None else np.asarray(t_values, dtype=int)
    ls = np.arange(n)
    out = np.empty(ts.size, dtype=complex)
    for i, t in enumerate(ts):
        out[i] = np.sum(a * np.exp(2j * np.pi * ((t % n) * ls % n) / n))
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


def block_products(dft_values, partition: EigenPartition) -> np.ndarray:
    """Products Pi_j of all n DFT values' lambda_{t * n/n'} over each block of partition."""
    lam = np.asarray(dft_values, dtype=complex)
    if lam.ndim != 1 or lam.size % partition.n_prime:
        raise ValueError("need all n DFT values, n a multiple of n'")
    log_mod, theta = _log_block_products(half_of(lam, partition), partition)
    return _assemble_products(log_mod, theta, partition)


def reference_formula_spectrum(a, k: int, n: int):
    """formula_spectrum assembled as it first was: log moduli and angles of all
    n' DFT values of the input summed mod n', per-root gathers, and one
    concatenate of zeros and roots.

    Returns (eigenvalues, block_index, root_index, root moduli, root arguments),
    the last two as formula_polar gives them; the library must reproduce every
    bit of each.
    """
    a = as_input_sequence(a, rows=True)
    partition = structure(n, k % n)
    m = partition.n_prime
    lam = dft(a.reshape(a.shape[:-1] + (-1, m)).sum(-2) if m < n else a)  # library's fold
    idx = members_of(partition)
    vals = lam.take(idx, axis=-1)
    theta = np.remainder(np.add.reduceat(np.angle(vals), partition.starts, axis=-1), TWO_PI)
    theta[theta > math.pi] -= TWO_PI
    self_conj = partition.self_conjugate
    theta[..., self_conj] = 0.0
    signs = vals.take(partition.starts, -1).real < 0.0
    theta[self_conj & (partition.sizes == 1) & signs] = math.pi
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(lam.take(idx, axis=-1)))
    log_mod = np.add.reduceat(logs, partition.starts, axis=-1)
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
    return eigs, block_index, root_index, root_mod, ang


def reference_ks_radial(radii: np.ndarray, g: int) -> float:
    """ks_radial with the distinct radii and their inverse from np.unique."""
    uniq, inverse = np.unique(np.sort(radii), return_inverse=True)
    f = _radial_cdf(g, uniq)[inverse]
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
    partition = spectrum.partition
    log_mod, theta = _log_block_products(half_of(dft(a), partition), partition)
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
        for j in range(partition.sizes.size):
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


def lsd_sample(g: int | None, count: int, rng: np.random.Generator, *,
               roots: bool = False) -> np.ndarray:
    """Draw count i.i.d. points of a limit law; radius and angle independent.

    The radius is (E_1 * ... * E_g)^(1/2g), or DEGENERATE_RADIUS when g is
    None; the angle is uniform on the 2g-th roots of unity when roots is set,
    and on the whole circle otherwise.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if g is None:
        radius = np.full(count, DEGENERATE_RADIUS)
    else:
        radius = rng.exponential(1.0, size=(count, g)).prod(axis=1) ** (1.0 / (2 * g))
    if roots:
        angles = (math.pi / g) * rng.integers(0, 2 * g, size=count)
    else:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return radius * np.exp(1j * angles)


def export_points_csv(points, tags, path) -> None:
    """Write a point cloud as CSV rows re,im,tag (repr floats, reproducible)."""
    points = np.asarray(points, dtype=complex)
    write_rows(path, "re,im,tag", [points.real, points.imag, list(tags)])


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
            scale = max(1.0, float(np.abs(dft(a)).max()))
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
