"""Exact spectra of k-circulant matrices and brute-force oracles.

The characteristic polynomial of the n x n matrix whose row j is the input
shifted right by j*k factors as

    lambda^(n - n') * prod_j (lambda^(n_j) - Pi_j)

where Pi_j multiplies the input DFT over the j-th orbit of t -> t*k (mod n').
This module builds the dense matrix, the DFT, the per-orbit products, the
exact eigenvalue multiset and spectral radius, plus LU-determinant and
dense-eigensolver oracles used to cross-check all of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._textio import write_text
from .numtheory import KCirculantParams, EigenPartition, structure

__all__ = [
    "SpectrumResult",
    "DetProbe",
    "as_input_sequence",
    "build_matrix",
    "dft",
    "dft_naive",
    "block_products",
    "formula_spectrum",
    "formula_radius",
    "det_probe_oracle",
    "dense_spectrum_oracle",
    "spectra_match",
    "export_spectrum_csv",
]

TWO_PI = 2.0 * math.pi


def as_input_sequence(values, rows: bool = False) -> np.ndarray:
    """Validate an input: 1-D (or 2-D, one sequence per row), length >= 2, finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 and not (rows and a.ndim == 2):
        raise ValueError(f"input must be 1-D{' or 2-D' if rows else ''}, got {a.ndim}-D")
    if a.shape[-1] < 2:
        raise ValueError("input sequence needs length >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("input sequence contains non-finite values")
    return a


def build_matrix(a, k: int, n: int) -> np.ndarray:
    """Dense n x n matrix A[j, c] = a[(c - j*k) mod n], one per row of a 2-D a."""
    a = as_input_sequence(a, rows=True)
    if a.shape[-1] != n:
        raise ValueError(f"input length {a.shape[-1]} does not match n = {n}")
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    cols = np.arange(n)
    idx = (cols[None, :] - k * cols[:, None]) % n
    return a.take(idx, axis=-1)


def dft(a) -> np.ndarray:
    """All n DFT values lambda_t = sum_l a_l exp(2*pi*i*t*l/n).

    Built from the half-spectrum real FFT so that lambda_{n-t} is the exact
    floating-point conjugate of lambda_t; the orbit products rely on that.
    A 2-D stack of inputs is transformed row by row.
    """
    a = as_input_sequence(a, rows=True)
    n = a.shape[-1]
    half = n // 2
    r = np.fft.rfft(a)
    lam = np.empty(a.shape, dtype=complex)
    lam[..., : half + 1] = np.conj(r)
    lam[..., half + 1 :] = r[..., 1 : n - half][..., ::-1]
    return lam


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


def _log_block_products(lam: np.ndarray, partition: EigenPartition,
                        dft_indices: np.ndarray):
    """Per-block DFT products in log form: (log modulus, principal angle).

    A self-conjugate block multiplies to a real number: its t, n'-t pairs
    contribute |lambda|^2 and only the t = 0 and t = n'/2 factors carry a
    sign. Those blocks get an exact angle of 0 or pi, which keeps the root
    directions exactly on their grid. Blocks whose product underflows to 0
    (some lambda_t == 0) come out with log modulus -inf. Works row by row on a stack.
    """
    vals = lam.take(dft_indices, axis=-1)
    starts, self_conj = partition.starts, partition.self_conjugate
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(vals))
    log_mod = np.add.reduceat(logs, starts, axis=-1)
    raw = np.add.reduceat(np.angle(vals), starts, axis=-1)
    theta = np.remainder(raw, TWO_PI)
    theta[theta > math.pi] -= TWO_PI
    theta.T[self_conj] = 0.0  # block axis first: x[..., mask] is slow on one row
    # the self-conjugate singletons are exactly {0} and {n'/2}, whose real,
    # possibly negative DFT values are the only sign carriers
    theta[self_conj & (partition.sizes == 1) & (vals.take(starts, -1).real < 0.0)] = math.pi
    return log_mod, theta


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


@dataclass
class SpectrumResult:
    """Exact eigenvalue multiset of a k-circulant.

    eigenvalues holds the n - n' structural zeros first (exact 0+0j), then for
    each orbit block its n_j roots of Pi_j in root order r = 0..n_j-1.
    block_index is -1 for structural zeros. block_products stores the complex
    Pi_j; for very large blocks these can overflow to inf even though the
    roots themselves (computed from logs) stay finite. A stack of inputs gives
    eigenvalues, block_products and dft one row per input; the rest is shared.
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    block_products: np.ndarray
    dft: np.ndarray
    params: KCirculantParams
    partition: EigenPartition
    block_index: np.ndarray
    root_index: np.ndarray


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


def formula_spectrum(a, k: int, n: int) -> SpectrumResult:
    """Exact spectrum via the factorized characteristic polynomial.

    Emits n - n' exact zeros plus, per block j, the n_j complex n_j-th roots
    of Pi_j: |Pi_j|^(1/n_j) * exp(i*(theta_j + 2*pi*r)/n_j), r = 0..n_j-1,
    with theta_j the principal argument of Pi_j. A 2-D stack of inputs, one
    per row, gives one row of eigenvalues per input.
    """
    a = as_input_sequence(a, rows=True)
    if a.shape[-1] != n:
        raise ValueError(f"input length {a.shape[-1]} does not match n = {n}")
    params, partition, idx = structure(n, k % n)
    lam = dft(a)
    log_mod, theta = _log_block_products(lam, partition, idx)
    products = _assemble_products(log_mod, theta, partition)

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
    return SpectrumResult(eigenvalues=eigs, zero_multiplicity=zeros,
                          block_products=products, dft=lam, params=params,
                          partition=partition, block_index=block_index,
                          root_index=root_index)


def formula_radius(a, k: int, n: int) -> float:
    """Spectral radius max_j |Pi_j|^(1/n_j), without forming any root.

    All n_j roots of block j share that modulus, and |lambda_{n-t}| equals
    |lambda_t| exactly, so the half-spectrum real FFT supplies every factor.
    Agrees with the largest |eigenvalue| of formula_spectrum to a few ulp.
    """
    a = as_input_sequence(a)
    if a.size != n:
        raise ValueError(f"input length {a.size} does not match n = {n}")
    _, partition, idx = structure(n, k % n)
    with np.errstate(divide="ignore"):
        half_logs = np.log(np.abs(np.fft.rfft(a)))
    log_mod = np.add.reduceat(half_logs[np.minimum(idx, n - idx)], partition.starts)
    return float(np.exp(log_mod * (1.0 / partition.sizes)).max())


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
    _, partition, idx = structure(n, k % n)
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


def dense_spectrum_oracle(matrix) -> np.ndarray:
    """Ground-truth eigenvalues of a small dense matrix.

    Delegates to LAPACK's standard dense nonsymmetric path (balancing,
    Hessenberg reduction, shifted QR). Simple eigenvalues come back to
    ~1e-8 * ||A||; a defective zero of multiplicity m scatters by about
    eps^(1/m), which callers must account for. A 3-D stack of matrices gives
    one row of eigenvalues per matrix from a single eigvals call.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if M.shape[-1] > 128:
        raise ValueError("dense eigensolver oracle is capped at n <= 128")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"dense eigensolver failed to converge (n={M.shape[-1]})") from exc


def spectra_match(s1, s2, tol: float) -> tuple[float, bool]:
    """Largest pair distance of a pairing of two equal-size eigenvalue multisets.

    Greedy pairing on a lexicographic (re, im) sort plus local swap repair; past
    tol, also the sum-minimizing assignment, keeping the smaller largest distance.
    Neither minimizes the largest distance. Returns (that distance, <= tol).
    """
    e1 = np.asarray(s1, dtype=complex).ravel()
    e2 = np.asarray(s2, dtype=complex).ravel()
    if e1.size != e2.size:
        raise ValueError("multisets must have equal cardinality")
    if e1.size == 0:
        return 0.0, True
    x = e1[np.lexsort((e1.imag, e1.real))]
    y = e2[np.lexsort((e2.imag, e2.real))].copy()
    d = np.abs(x - y)
    for _ in range(4):
        if d.max() <= tol:
            break
        improved = False
        for i in range(x.size - 1):
            alt = max(abs(x[i] - y[i + 1]), abs(x[i + 1] - y[i]))
            if alt < max(d[i], d[i + 1]):
                y[i], y[i + 1] = y[i + 1], y[i]
                d[i] = abs(x[i] - y[i])
                d[i + 1] = abs(x[i + 1] - y[i + 1])
                improved = True
        if not improved:
            break
    best = float(d.max())
    if best > tol:
        from scipy.optimize import linear_sum_assignment

        cost = np.abs(x[:, None] - y[None, :])
        rows, cols = linear_sum_assignment(cost)
        best = min(best, float(cost[rows, cols].max()))
    return best, best <= tol


def export_spectrum_csv(result: SpectrumResult, path, scale: float = 1.0,
                        append: bool = False) -> None:
    """Write eigenvalues as CSV rows re,im,block_index,root_index.

    Structural zeros carry block_index -1. Floats are serialized with repr,
    so equal inputs produce byte-identical files.
    """
    lines = [] if append else ["re,im,block_index,root_index"]
    eig = result.eigenvalues * scale
    for z, b, r in zip(eig, result.block_index, result.root_index):
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{int(b)},{int(r)}")
    write_text(path, "\n".join(lines) + "\n", append)
