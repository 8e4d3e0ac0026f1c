"""Exact spectra of k-circulant matrices and the dense check behind them.

The characteristic polynomial of the n x n matrix whose row j is the input
shifted right by j*k factors as

    lambda^(n - n') * prod_j (lambda^(n_j) - Pi_j)

where Pi_j multiplies the input DFT over the j-th orbit of t -> t*k (mod n'): its values at the
multiples of n/n', the n'-point DFT of the input summed mod n'. That DFT is one real FFT, or
at n' = r*p with p its largest prime factor, p >= SPLIT_FLOOR and r < p, FFTs of lengths p and
r joined by the prime-factor map. This module builds their per-orbit products in log form on
numtheory.EigenPartition's root layout, the exact eigenvalues (also in polar form), spectral
radius, verify's dense oracle and matcher, and the CSV columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import write_rows
from .numtheory import EigenPartition, structure

__all__ = [
    "SpectrumResult",
    "as_input_sequence",
    "build_matrix",
    "formula_spectrum",
    "formula_polar",
    "formula_radius",
    "dense_spectrum_oracle",
    "spectra_match",
    "export_spectrum_csv",
]

TWO_PI = 2.0 * math.pi
DENSE_ORACLE_CAP = 128  # largest n the dense eigensolver oracle accepts
SPLIT_FLOOR = 293  # least largest prime factor of n' that takes _split_rfft (README sweep)


def as_input_sequence(values, rows: bool = False, n: int | None = None) -> np.ndarray:
    """Validate an input: 1-D (or 2-D, one sequence per row), length >= 2 (n
    when given), finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 and not (rows and a.ndim == 2):
        raise ValueError(f"input must be 1-D{' or 2-D' if rows else ''}, got {a.ndim}-D")
    if a.shape[-1] < 2:
        raise ValueError("input sequence needs length >= 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("input sequence contains non-finite values")
    if n is not None and a.shape[-1] != n:
        raise ValueError(f"input length {a.shape[-1]} does not match n = {n}")
    return a


def build_matrix(a, k: int, n: int) -> np.ndarray:
    """Dense n x n matrix A[j, c] = a[(c - j*k) mod n], one per row of a 2-D a."""
    a = as_input_sequence(a, rows=True, n=n)
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    cols = np.arange(n)
    idx = (cols[None, :] - k * cols[:, None]) % n
    return a.take(idx, axis=-1)


def _split_rfft(a: np.ndarray, r: int, p: int) -> np.ndarray:
    """np.fft.rfft(a).conj() of rows of length n' = r*p, for a prime p > r, by the prime-factor
    map (Good 1958, Thomas 1963): x[j1, j2] = a[(j1*p + j2*r) mod n'] (r x p) takes a real FFT
    along p and a complex one along r, with no twiddle factor, and lambda_t is read at
    (t mod r, t mod p), or as the conjugate at (-t mod r, p - t mod p) when t mod p > p//2."""
    m, q = r * p, p // 2 + 1
    gather = np.add.outer(np.arange(0, m, p, dtype=np.int32), np.arange(0, m, r, dtype=np.int32))
    np.subtract(gather, m, out=gather, where=gather >= m)
    y = np.fft.rfft(a.take(gather, axis=-1)).swapaxes(-1, -2).copy()  # (q, r): last axis is fast
    del gather
    np.fft.fft(y, out=y)
    # t = u*p + b, b < p, covers 0..n'//2: it reads y[b, t mod r], or y[p - b, -t mod r]
    # conjugated when b > p//2, at flat index min(b, p - b)*r plus that column
    b = np.arange(p, dtype=np.int32)
    shift = np.arange(0, (m // 2 // p + 1) * p, p, dtype=np.int32) % r  # u*p mod r
    idx = np.empty((shift.size, p), np.int32)
    np.add.outer(shift, b[:q] % r, out=idx[:, :q])  # t mod r, or that plus r
    np.add.outer(-shift % r, -b[q:] % r, out=idx[:, q:])  # -t mod r, or that plus r
    (np.arange(2 * r, dtype=np.int32) % r).take(idx, out=idx)
    idx += np.minimum(b, p - b) * r
    half = y.reshape(y.shape[:-2] + (-1,)).take(idx, axis=-1)
    np.negative(half.imag[..., :q], out=half.imag[..., :q])  # the conjugate of a direct read
    half = half.reshape(half.shape[:-2] + (-1,))[..., : m // 2 + 1]
    if m % 2 == 0:  # lambda_{n'/2} is real: np.fft.rfft(a).conj() has -0.0 there
        half.imag[..., -1] = -0.0
    return half


def _half_spectrum(a: np.ndarray, partition: EigenPartition) -> np.ndarray:
    """lambda_{t*n/n'} for t = 0..n'//2, the values the formula reads: the n'-point DFT
    of the input summed mod n' (the input itself when n' = n), as a conjugated real FFT.
    When n' = r*p for its largest prime factor p >= SPLIT_FLOOR and 1 < r < p, the FFT is
    _split_rfft's, which moves last bits; every other n' takes np.fft.rfft itself."""
    m = partition.n_prime
    if m < a.shape[-1]:
        a = a.reshape(a.shape[:-1] + (-1, m)).sum(-2)
    p = partition.largest_prime
    if p >= SPLIT_FLOOR and 1 < m // p < p:
        return _split_rfft(a, m // p, p)
    return np.fft.rfft(a).conj()


def _log_moduli(half: np.ndarray, partition: EigenPartition) -> np.ndarray:
    """Per-block sums of log |lambda_t|, -inf at a zero, from _half_spectrum's values at
    each member's fold min(t, n' - t): |lambda_{n'-t}| = |lambda_t|."""
    with np.errstate(divide="ignore"):
        half_logs = np.log(np.abs(half))
    return np.add.reduceat(half_logs.take(partition.fold, axis=-1), partition.starts, axis=-1)


def _log_block_products(half: np.ndarray, partition: EigenPartition):
    """Per-block DFT products in log form: (log modulus, principal angle), read from
    _half_spectrum's values alone: a member t > n'/2 takes -angle(lambda_{n'-t}).

    A self-conjugate block multiplies to a real number: its t, n'-t pairs contribute
    |lambda|^2 and only the t = 0 and t = n'/2 factors carry a sign. Those blocks get
    an exact angle of 0 or pi, which keeps the root directions exactly on their grid.
    A block with some lambda_t == 0 gets log modulus -inf. Works row by row on a stack.
    """
    starts, self_conj = partition.starts, partition.self_conjugate
    arg = np.angle(half).take(partition.fold, -1)
    arg *= partition.mirror  # exact, and far faster than a masked negative on this scatter
    theta = np.remainder(np.add.reduceat(arg, starts, axis=-1), TWO_PI)
    theta[theta > math.pi] -= TWO_PI
    theta.T[self_conj] = 0.0  # block axis first: x[..., mask] is slow on one row
    # the self-conjugate singletons are exactly {0} and {n'/2}, whose real, possibly
    # negative DFT values are the only sign carriers
    theta[self_conj & (partition.sizes == 1)
          & (half.take(partition.fold[starts], -1).real < 0)] = math.pi
    return _log_moduli(half, partition), theta


def _polar_roots(a: np.ndarray, partition: EigenPartition):
    """formula_spectrum's block roots of input a as (moduli, arguments), in eigenvalue order."""
    log_mod, theta = _log_block_products(_half_spectrum(a, partition), partition)
    inv = 1.0 / partition.sizes
    ang = np.repeat(theta, partition.sizes, axis=-1)
    ang += TWO_PI * partition.root_rank
    ang *= np.repeat(inv, partition.sizes)
    return np.repeat(np.exp(log_mod * inv), partition.sizes, axis=-1), ang


@dataclass
class SpectrumResult:
    """Exact eigenvalue multiset of a k-circulant.

    eigenvalues holds the n - n' structural zeros first (exact 0+0j), then for
    each orbit block its n_j roots of Pi_j in root order r = 0..n_j-1. A stack
    of inputs gives eigenvalues one row per input; the rest is shared.
    block_index (-1 for structural zeros) and root_index label each eigenvalue;
    both are computed when read, root_index from the partition's root_rank.
    """

    eigenvalues: np.ndarray
    zero_multiplicity: int
    partition: EigenPartition

    @property
    def block_index(self) -> np.ndarray:
        runs = np.concatenate([[self.zero_multiplicity], self.partition.sizes])
        return np.repeat(np.arange(-1, self.partition.sizes.size), runs)

    @property
    def root_index(self) -> np.ndarray:
        return np.concatenate([np.arange(self.zero_multiplicity), self.partition.root_rank])


def formula_spectrum(a, k: int, n: int) -> SpectrumResult:
    """Exact spectrum via the factorized characteristic polynomial.

    Emits n - n' exact zeros plus, per block j, the n_j complex n_j-th roots
    of Pi_j: |Pi_j|^(1/n_j) * exp(i*(theta_j + 2*pi*r)/n_j), r = 0..n_j-1,
    with theta_j the principal argument of Pi_j. A 2-D stack of inputs, one
    per row, gives one row of eigenvalues per input.
    """
    a = as_input_sequence(a, rows=True, n=n)
    partition = structure(n, k)
    modulus, ang = _polar_roots(a, partition)
    # no temporaries, and the bits of modulus * (cos + 1j * sin): no argument is -0.0
    eigs = np.zeros(a.shape[:-1] + (n,), complex)
    roots = eigs[..., n - partition.n_prime:]
    np.sin(ang, out=roots.imag)
    np.cos(ang, out=roots.real)
    roots *= modulus
    return SpectrumResult(eigs, n - partition.n_prime, partition)


def formula_polar(a, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """formula_spectrum's roots as (moduli, arguments), without its n - n' zeros or a complex
    root. A block's roots share one modulus; arguments lie in (-pi, 2*pi)."""
    a = as_input_sequence(a, rows=True, n=n)
    return _polar_roots(a, structure(n, k))


def formula_radius(a, k: int, n: int) -> float:
    """Spectral radius max_j |Pi_j|^(1/n_j), without forming any root.

    All n_j roots of block j share that modulus, and |lambda_{n'-t}| equals
    |lambda_t| exactly, so the half spectrum supplies every factor.
    Agrees with the largest |eigenvalue| of formula_spectrum to a few ulp.
    """
    a = as_input_sequence(a, n=n)
    partition = structure(n, k)
    log_mod = _log_moduli(_half_spectrum(a, partition), partition)
    return float(np.exp(log_mod * (1.0 / partition.sizes)).max())


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
    if M.shape[-1] > DENSE_ORACLE_CAP:
        raise ValueError(f"dense eigensolver oracle is capped at n <= {DENSE_ORACLE_CAP}")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"dense eigensolver failed to converge (n={M.shape[-1]})") from exc


def _least_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair each row of cost (rows <= columns, entries >= 0 or NaN) with a distinct
    column at the least summed cost: (each row's column, each pair's cost).

    Phase 1 gives each row its cheapest column: optimal when no column is taken
    twice, as the row minima bound every assignment from below. Otherwise the first
    row keeps a contested column, as in a row-by-row solve, and each row left over
    gets one shortest augmenting path over the reduced costs cost - u - v
    (rectangular Jonker-Volgenant, Crouse 2016, IEEE TAES 52(4)) from the phase-1
    duals u = row minima, v = 0. A path ends at a free column as soon as one is as
    close as any taken one. Raises ValueError on NaN or if no finite sum exists.
    """
    col4row = cost.argmin(axis=1) if cost.size else np.zeros(len(cost), int)
    rows = np.arange(len(cost))
    u = cost[rows, col4row]  # argmin returns a NaN's index, so a NaN row gives u = NaN
    if not u.max(initial=0.0) < np.inf:
        raise ValueError("cost matrix has NaN or a row with no finite entry")
    taken = np.zeros(cost.shape[1], bool)
    taken[col4row] = True
    if np.count_nonzero(taken) == len(cost):
        return col4row, u
    row4col = np.full(cost.shape[1], -1)
    row4col[col4row[::-1]] = rows[::-1]  # repeats are written in order: the first row wins
    v = np.zeros(cost.shape[1])
    for cur in rows[row4col[col4row] != rows]:
        dist = np.full(cost.shape[1], np.inf)  # shortest path cost to each column
        path = np.zeros(cost.shape[1], int)  # the row a shortest path reaches it from
        done = np.zeros(cost.shape[1], bool)
        seen, i, lowest = [], cur, 0.0
        while True:
            seen.append(i)
            reduced = lowest + cost[i] - u[i] - v
            closer = (reduced < dist) & ~done
            dist[closer], path[closer] = reduced[closer], i
            lowest = np.where(done, np.inf, dist).min()
            if lowest == np.inf:
                raise ValueError("cost matrix is infeasible")
            near = np.flatnonzero(~done & (dist == lowest))
            j = near[np.argmin(row4col[near] >= 0)]  # the first free one, if any
            done[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += lowest
        u[seen[1:]] += lowest - dist[col4row[seen[1:]]]
        v[done] -= lowest - dist[done]
        while True:  # flip the pairs along the path, from the free column back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row, cost[rows, col4row]


def spectra_match(s1, s2, tol: float) -> tuple[float, bool, np.ndarray]:
    """Pair each value of s1 with a distinct value of s2 at the least summed distance.

    One exact least-sum assignment over |s1[i] - s2[j]|, for len(s1) <= len(s2),
    in numpy alone (_least_sum_assignment). The pairing minimizes the sum of
    distances, so its largest distance is an upper bound on the bottleneck
    optimum (the smallest achievable largest pair distance). Returns (largest
    pair distance, that distance <= tol, the values of s2 left unpaired).
    """
    e1 = np.asarray(s1, dtype=complex).ravel()
    e2 = np.asarray(s2, dtype=complex).ravel()
    if e1.size > e2.size:
        raise ValueError(f"s1 has {e1.size} values but s2 only {e2.size}")
    cols, paired = _least_sum_assignment(np.abs(e1[:, None] - e2[None, :]))
    dist = float(paired.max(initial=0.0))
    return dist, dist <= tol, np.delete(e2, cols)


def export_spectrum_csv(result: SpectrumResult, path, scale: float = 1.0,
                        append: bool = False) -> None:
    """Write eigenvalues as CSV rows re,im,block_index,root_index with _textio.write_rows.

    Structural zeros carry block_index -1. Floats are written as their repr, so equal
    inputs produce byte-identical files. A stack of spectra is refused.
    """
    eig = result.eigenvalues * scale
    if eig.ndim != 1:
        raise ValueError(f"export_spectrum_csv takes one input's spectrum, not {len(eig)} rows")
    write_rows(path, "re,im,block_index,root_index",
               [eig.real, eig.imag, result.block_index, result.root_index], append)
