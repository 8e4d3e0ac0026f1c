"""Exact integer machinery behind the k-circulant eigenvalue formula.

Everything in this module is exact integer arithmetic, on Python ints and
numpy integer arrays: the common-factor decomposition of (k, n), the orbits of
t -> t*k (mod n') that partition Z_{n'} and the root layout read off them, orbit
orders and conjugacy, and the table of block counts, from the divisors of n' without a walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "KCirculantParams",
    "EigenPartition",
    "decompose",
    "eigen_partition",
    "orbit_table",
    "orbit_summary",
    "structure",
]


def factorize(m: int) -> list[tuple[int, int]]:
    """Trial-division factorization of m >= 1 as a list of (prime, exponent)."""
    if m < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


@dataclass(frozen=True)
class KCirculantParams:
    """Shift k and dimension n with their common prime factors split out.

    n = n_prime * prod(p**beta) and k = k_prime * prod(p**alpha) where
    n_prime, k_prime and the common primes p are pairwise coprime, and
    common_primes stores (p, alpha, beta) with alpha, beta >= 1.
    """

    n: int
    k: int
    n_prime: int
    k_prime: int
    common_primes: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n_rebuilt = self.n_prime
        k_rebuilt = self.k_prime
        for p, alpha, beta in self.common_primes:
            n_rebuilt *= p**beta
            k_rebuilt *= p**alpha
        if n_rebuilt != self.n or k_rebuilt != self.k:
            raise ValueError("common-prime decomposition does not multiply back")

    @property
    def zero_multiplicity(self) -> int:
        """Number of structurally zero eigenvalues, n - n'."""
        return self.n - self.n_prime


N_CAP = 10**14  # largest n: decompose factors gcd(k, n) <= n/2 in ~sqrt(n/2)/2 trial divisions


def decompose(n: int, k: int) -> KCirculantParams:
    """Reduce k mod n and split the common prime factors out of (k, n).

    Rejects k = 0 (mod n): that matrix has all rows equal and none of the
    orbit machinery applies. Rejects n > N_CAP, whose gcd could take long to factor.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > N_CAP:
        raise ValueError(f"n = {n} exceeds the cap of {N_CAP} on factoring gcd(k, n)")
    if k < 1:
        raise ValueError("k must be at least 1")
    k %= n
    if k == 0:
        raise ValueError("degenerate k-circulant: k reduces to 0 mod n (every row identical)")
    n_prime, k_prime = n, k
    common = []
    for p, _ in factorize(math.gcd(n, k)):
        alpha = beta = 0
        while k_prime % p == 0:
            k_prime //= p
            alpha += 1
        while n_prime % p == 0:
            n_prime //= p
            beta += 1
        common.append((p, alpha, beta))
    return KCirculantParams(n=n, k=k, n_prime=n_prime, k_prime=k_prime,
                            common_primes=tuple(common))


def _power_orders(k: int, p: int, e: int) -> list[int]:
    """ord_{p^f}(k) for f = 0..e, for k coprime to the prime p and e >= 1.

    The order mod p divides p - 1, so it is found by dividing the primes q of p - 1 out while
    k^(order/q) = 1 (mod p). Each lift to p^f keeps the order or multiplies it by p, as the
    units = 1 (mod p^(f-1)) form a group of order p, p = 2 included.
    """
    order = p - 1
    for q, _ in factorize(order):
        while order % q == 0 and pow(k, order // q, p) == 1:
            order //= q
    orders = [1, order]
    for f in range(2, e + 1):
        if pow(k, order, p**f) != 1:
            order *= p
        orders.append(order)
    return orders


# Largest n' whose orbits are enumerated. The walk peaks at 36 bytes per element, 52 when
# every block is a singleton (k = 1; tracemalloc at n' = 1000003), and the partition keeps 9,
# plus 17 per block, so this cap bounds the walk near 520 MB, and keeps t * k and label * n'
# far below 2**63 and n' below 2**31.
ORBIT_CAP = 10**7


@dataclass(frozen=True, eq=False)
class EigenPartition:
    """Partition of Z_{n'} into orbits of t -> t*k (mod n'), as the root layout the formula reads.

    Blocks are listed by ascending smallest member, each ascending inside, so
    block 0 is {0}; block j holds the members at starts[j] : starts[j] + sizes[j].
    self_conjugate marks the blocks that are their own reflection n' - t. Every
    array is read-only, as the structure cache shares them. largest_prime, the largest
    prime factor of n' (1 at n' = 1), comes from the factorization the walk makes for g1:
    spectral._half_spectrum reads it to route the n'-point transform.
    """

    n_prime: int
    largest_prime: int
    starts: np.ndarray
    sizes: np.ndarray
    self_conjugate: np.ndarray
    fold: np.ndarray  # min(t, n' - t) per member t: where it reads the half spectrum (int32)
    mirror: np.ndarray  # -1 on the members t > n'/2, which read the conjugate there, else 1 (int8)
    root_rank: np.ndarray  # rank r = 0..n_j-1 of each root within its block (int32)

    def __post_init__(self):
        for arr in (self.starts, self.sizes, self.self_conjugate, self.fold, self.mirror,
                    self.root_rank):
            arr.setflags(write=False)


def eigen_partition(params: KCirculantParams) -> EigenPartition:
    """All orbits of multiplication by k on Z_{n'}, each tagged self-conjugate or not.

    Labels each t with the smallest member of its orbit by pointer doubling:
    after round r, label[t] is the minimum over t*k^j for j < 2^(r+1), and
    ceil(log2 g1) rounds cover every orbit, since orbit sizes divide g1, the order of k mod n':
    the lcm of its orders at the prime powers of n', from _power_orders.
    A stable sort by label then lists the blocks; one holding n' - min is self-conjugate.
    Refuses n' > ORBIT_CAP before allocating.
    """
    m = params.n_prime
    if m > ORBIT_CAP:
        raise ValueError(f"n' = {m} exceeds the orbit enumeration cap of {ORBIT_CAP}")
    kp = params.k % m
    primes = factorize(m)
    g1 = math.lcm(*(_power_orders(kp, p, e)[e] for p, e in primes))
    t = np.arange(m, dtype=np.int64)
    # int32 halves the memory the gathers touch; n' <= ORBIT_CAP < 2**31
    label = t.astype(np.int32)
    step = (t * kp % m).astype(np.int32)  # t -> t*k^(2^r) mod n' in round r
    for _ in range((g1 - 1).bit_length()):
        np.minimum(label, label.take(step), out=label)
        step = step.take(step)
    keys = np.sort(label.astype(np.int64) * m + t)  # distinct keys: a stable sort by label
    del t, step  # the layout reuses the walk's memory, which keeps its peak and the heap low
    starts = np.flatnonzero(np.diff(keys // m, prepend=-1))
    sizes = np.diff(starts, append=m)
    members = np.remainder(keys, m, out=keys)
    mins = members[starts]
    self_conjugate = label[(m - mins) % m] == mins
    del label
    fold = members.astype(np.int32)
    return EigenPartition(
        n_prime=m, largest_prime=primes[-1][0] if primes else 1, starts=starts, sizes=sizes,
        self_conjugate=self_conjugate, fold=np.minimum(fold, m - fold, out=fold),
        mirror=1 - 2 * (members > m // 2).view(np.int8),
        root_rank=np.arange(m, dtype=np.int32) - np.repeat(starts.astype(np.int32), sizes))


def orbit_table(params: KCirculantParams) -> list[tuple[int, bool, int]]:
    """eigen_partition's blocks as sorted rows (size, self-conjugate, count), for every
    n <= N_CAP, counted from the divisors m of n' without a walk: the t with gcd(t, n') = n'/m
    are the units mod m times n'/m, so m gives phi(m) / ord_m(k) orbits of size ord_m(k) (the
    lcm of the orders at its prime powers), self-conjugate when m <= 2 or k^(ord/2) = -1 (mod m).
    Its time is trial division's of n' and of each p - 1: about 1.3 s at the safe prime
    99999999995927 (2-vCPU VM)."""
    divisors = [(1, 1, 1)]  # (m, phi(m), ord_m(k)) over the divisors of n' built so far
    for p, e in factorize(params.n_prime):
        orders = _power_orders(params.k, p, e)
        divisors = [(m * p**f, phi * (p**f - p**f // p), math.lcm(order, orders[f]))
                    for m, phi, order in divisors for f in range(e + 1)]
    counts = {}
    for m, phi, order in divisors:
        row = order, m <= 2 or order % 2 == 0 and pow(params.k, order // 2, m) == m - 1
        counts[row] = counts.get(row, 0) + phi // order
    return sorted((*row, count) for row, count in counts.items())


@dataclass(frozen=True)
class OrbitSummary:
    """What orbit_summary returns."""

    g1: int  # the largest block size; every size divides it
    blocks: int
    self_conjugate: int  # blocks that are their own reflection
    histogram: dict[int, int]  # block count per size, in ascending size
    upsilon: Fraction  # fraction of Z_{n'} in blocks smaller than g1


def orbit_summary(params: KCirculantParams) -> OrbitSummary:
    """orbit_table's rows summed up: the one reduction the commands and hypotheses read."""
    rows = orbit_table(params)
    hist = {size: sum(c for s, _, c in rows if s == size) for size, _, _ in rows}
    g1 = rows[-1][0]
    return OrbitSummary(g1, sum(hist.values()), sum(c for _, conj, c in rows if conj), hist,
                        Fraction(params.n_prime - g1 * hist[g1], params.n_prime))


@lru_cache(maxsize=1)
def structure(n: int, k: int) -> EigenPartition:
    """Orbit partition of (n, k), read-only: the one orbit-structure cache. It keeps only the
    pair in use: commands read one pair at a time, and a partition at n' = 10**6 holds 9 MB."""
    return eigen_partition(decompose(n, k))
