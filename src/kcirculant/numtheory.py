"""Exact integer machinery behind the k-circulant eigenvalue formula.

Everything in this module is exact integer arithmetic, on Python ints and
numpy integer arrays: the common-factor decomposition of (k, n), the orbits of
t -> t*k (mod n') that partition Z_{n'}, orbit orders and conjugacy, and the
counting quantities that measure how many elements sit in orbits smaller than
the largest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "KCirculantParams",
    "EigenPartition",
    "RegimeClassification",
    "decompose",
    "orbit",
    "multiplicative_order",
    "eigen_partition",
    "structure",
    "upsilon",
    "lower_order_count_ie",
    "gcd_power_bound",
    "classify_regime",
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
        if not 1 <= self.k < self.n:
            raise ValueError("k must satisfy 1 <= k < n after reduction mod n")
        if math.gcd(self.n_prime, self.k) != 1:
            raise ValueError("n_prime must be coprime with k")
        parts = [self.n_prime, self.k_prime] + [p for p, _, _ in self.common_primes]
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if math.gcd(parts[i], parts[j]) != 1:
                    raise ValueError("decomposition parts are not pairwise coprime")

    @property
    def zero_multiplicity(self) -> int:
        """Number of structurally zero eigenvalues, n - n'."""
        return self.n - self.n_prime


def decompose(n: int, k: int) -> KCirculantParams:
    """Reduce k mod n and split the common prime factors out of (k, n).

    Rejects k = 0 (mod n): that matrix has all rows equal and none of the
    orbit machinery applies.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
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


def orbit(x: int, k: int, n_prime: int) -> tuple[list[int], int]:
    """Orbit {x * k^b mod n'} of x under multiplication by k, and its size.

    The size is the least b > 0 with x*k^b = x (mod n'). Requires
    gcd(k, n') = 1 so that multiplication by k permutes Z_{n'}.
    """
    if n_prime < 1:
        raise ValueError("n_prime must be positive")
    if not 0 <= x < n_prime:
        raise ValueError("x must lie in Z_{n_prime}")
    if n_prime > 1 and math.gcd(k, n_prime) != 1:
        raise ValueError("k must be invertible mod n_prime")
    members = [x]
    y = x * k % n_prime
    while y != x:
        members.append(y)
        y = y * k % n_prime
    return sorted(members), len(members)


def multiplicative_order(k: int, m: int) -> int:
    """Least b > 0 with k^b = 1 (mod m); order 1 by convention when m = 1.

    The order divides the Carmichael exponent lambda(m), so it is found by
    dividing prime factors out of lambda(m) while k^(order/p) stays 1.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 1
    if math.gcd(k, m) != 1:
        raise ValueError("k must be invertible mod m")
    order = 1
    for p, e in factorize(m):
        lam = 2 ** (e - 2) if p == 2 and e >= 3 else p ** (e - 1) * (p - 1)
        order = math.lcm(order, lam)
    for p, _ in factorize(order):
        while order % p == 0 and pow(k, order // p, m) == 1:
            order //= p
    return order


# Largest n' whose orbits are enumerated. The kernel peaks at about 56 bytes
# per element (measured: 56 MB at n' = 10**6), so this cap bounds it near
# 560 MB, and keeps t * k and label * n' far below 2**63 and n' below 2**31.
ORBIT_CAP = 10**7


@dataclass(frozen=True, eq=False)
class EigenPartition:
    """Partition of Z_{n'} into orbits of t -> t*k (mod n').

    Blocks are listed by ascending smallest member, each ascending inside, so
    block 0 is {0}. members holds all blocks concatenated; block j is
    members[starts[j] : starts[j] + sizes[j]]. g1 is the orbit size of 1
    (every other orbit size divides it). conjugate[j] is the index of the
    block holding the reflections n' - t of block j; it equals j exactly for
    blocks that are their own reflection. The tuple views blocks and
    conjugate_block are built on demand.
    """

    n_prime: int
    k: int
    members: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    g1: int
    conjugate: np.ndarray

    def __post_init__(self):
        for arr in (self.members, self.starts, self.sizes, self.conjugate):
            arr.setflags(write=False)  # shared through the structure cache

    def is_self_conjugate(self, j: int) -> bool:
        return bool(self.conjugate[j] == j)

    @cached_property
    def self_conjugate(self) -> np.ndarray:
        """Boolean mask of the blocks that are their own reflection."""
        mask = self.conjugate == np.arange(self.conjugate.size)
        mask.setflags(write=False)
        return mask

    @property
    def block_count(self) -> int:
        return int(self.sizes.size)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b.tolist()) for b in np.split(self.members, self.starts[1:]))

    @property
    def conjugate_block(self) -> tuple[int, ...]:
        return tuple(self.conjugate.tolist())

    @property
    def upsilon(self) -> Fraction:
        """Fraction of Z_{n'} in orbits strictly smaller than g1."""
        return Fraction(int(self.sizes[self.sizes < self.g1].sum()), self.n_prime)


def eigen_partition(params: KCirculantParams) -> EigenPartition:
    """All orbits of multiplication by k on Z_{n'}, with conjugacy tags.

    Labels each t with the smallest member of its orbit by pointer doubling:
    after round r, label[t] is the minimum over t*k^j for j < 2^(r+1), and
    ceil(log2 g1) rounds cover every orbit, since orbit sizes divide g1.
    A stable sort by label then lists the blocks.
    """
    m = params.n_prime
    if m > ORBIT_CAP:
        raise ValueError(f"n' = {m} exceeds the orbit enumeration cap of {ORBIT_CAP}")
    kp = params.k % m if m > 1 else 0
    g1 = multiplicative_order(kp, m)
    t = np.arange(m, dtype=np.int64)
    # int32 halves the memory the gathers touch; n' <= ORBIT_CAP < 2**31
    label = t.astype(np.int32)
    step = (t * kp % m).astype(np.int32)  # t -> t*k^(2^r) mod n' in round r
    for _ in range((g1 - 1).bit_length()):
        np.minimum(label, label.take(step), out=label)
        step = step.take(step)
    keys = np.sort(label.astype(np.int64) * m + t)  # distinct keys: a stable sort by label
    members = keys % m
    starts = np.flatnonzero(np.diff(keys // m, prepend=-1))
    sizes = np.diff(starts, append=m)
    mins = members[starts]
    # reflection is constant on blocks, so one representative suffices
    conjugate = np.searchsorted(mins, label[(m - mins) % m])
    return EigenPartition(n_prime=m, k=params.k, members=members, starts=starts,
                          sizes=sizes, g1=g1, conjugate=conjugate)


@lru_cache(maxsize=64)
def structure(n: int, k: int) -> tuple[KCirculantParams, EigenPartition, np.ndarray]:
    """Decomposition, orbit partition and DFT indices (members * n/n') of (n, k).

    The one orbit-structure cache: each (n, k) is walked once; arrays are read-only.
    """
    params = decompose(n, k)
    partition = eigen_partition(params)
    dft_indices = partition.members * (n // params.n_prime)
    dft_indices.setflags(write=False)
    return params, partition, dft_indices


def upsilon(params: KCirculantParams) -> Fraction:
    """Fraction of Z_{n'} sitting in orbits strictly smaller than the largest.

    Read off the orbit sizes of the partition, so it is checked against the
    independent inclusion-exclusion count in lower_order_count_ie.
    """
    return structure(params.n, params.k)[1].upsilon


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


@dataclass(frozen=True)
class RegimeClassification:
    """Outcome of testing k^g = -1 + s*n or k^g = +1 + s*n.

    case is "minus_one", "plus_one" or "neither"; s is the exact integer
    multiplier (None for "neither"). g1 and upsilon describe the actual orbit
    structure so callers can check g1 == 2g (minus case) or g1 == g (plus).
    """

    case: str
    s: int | None
    g: int
    g1: int
    upsilon: Fraction


def classify_regime(g: int, k: int, n: int) -> RegimeClassification:
    """Detect whether k^g is congruent to -1 or +1 mod n, with exact multiplier s.

    Requires gcd(k, n) = 1. When n = 2 both congruences coincide and the
    minus-one reading is reported.
    """
    if g < 1:
        raise ValueError("g must be at least 1")
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    if math.gcd(k, n) != 1:
        raise ValueError("classify_regime requires gcd(k, n) = 1")
    part = structure(n, k % n)[1]
    g1, ups = part.g1, part.upsilon
    kg_mod = pow(k, g, n)
    if kg_mod == n - 1:
        return RegimeClassification("minus_one", (k**g + 1) // n, g, g1, ups)
    if kg_mod == 1:
        return RegimeClassification("plus_one", (k**g - 1) // n, g, g1, ups)
    return RegimeClassification("neither", None, g, g1, ups)
