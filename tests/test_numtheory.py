import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    blocks_of,
    gcd_power_bound,
    lower_order_count_ie,
    orbit_walk,
)
from kcirculant import numtheory
from kcirculant.montecarlo import (
    KIND_LSD3,
    KIND_LSD4,
    ExperimentConfig,
    HypothesisError,
    hypothesis_check,
)
from kcirculant.numtheory import (
    N_CAP,
    ORBIT_CAP,
    OrbitSummary,
    _power_orders,
    decompose,
    eigen_partition,
    factorize,
    orbit_summary,
    orbit_table,
    structure,
)


class TestDecompose:
    def test_common_prime_example(self):
        p = decompose(6, 2)
        assert (p.n_prime, p.k_prime) == (3, 1)
        assert p.common_primes == ((2, 1, 1),)
        assert p.zero_multiplicity == 3

    def test_coprime_example(self):
        p = decompose(7, 2)
        assert (p.n_prime, p.k_prime) == (7, 2)
        assert p.common_primes == ()

    def test_two_common_primes(self):
        p = decompose(12, 6)
        assert (p.n_prime, p.k_prime) == (1, 1)
        assert p.common_primes == ((2, 1, 2), (3, 1, 1))
        assert p.n_prime * 2**2 * 3 == 12

    def test_k_reduced_mod_n(self):
        assert decompose(7, 9).k == 2

    def test_degenerate_k_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            decompose(6, 12)
        with pytest.raises(ValueError):
            decompose(1, 1)
        with pytest.raises(ValueError):
            decompose(5, 0)

    def test_n_above_cap_refused_before_factoring(self):
        # gcd(k, n) = 10000000000000061 is prime: trial division took 8 s to factor it
        with pytest.raises(ValueError, match=f"n = 20000000000000122 exceeds the cap of {N_CAP}"):
            decompose(20000000000000122, 10000000000000061)
        assert decompose(N_CAP, 3).n_prime == N_CAP

    def test_invariants_sweep(self):
        for n in range(2, 120):
            for k in range(1, n):
                p = decompose(n, k)
                rebuilt_n = p.n_prime
                rebuilt_k = p.k_prime
                for q, alpha, beta in p.common_primes:
                    assert alpha >= 1 and beta >= 1
                    rebuilt_n *= q**beta
                    rebuilt_k *= q**alpha
                assert rebuilt_n == n and rebuilt_k == k
                assert math.gcd(p.n_prime, p.k) == 1 and 1 <= p.k < n
                parts = [p.n_prime, p.k_prime, *(q for q, _, _ in p.common_primes)]
                assert math.prod(parts) == math.lcm(*parts)  # pairwise coprime


class TestOrbit:
    def test_examples(self):
        assert (1, 2, 4) in orbit_walk(7, 2)["blocks"]
        assert (0,) in orbit_walk(11, 3)["blocks"]
        assert (5,) in orbit_walk(10, 3)["blocks"]


class TestEigenPartition:
    def test_k2_n7(self):
        part = eigen_partition(decompose(7, 2))
        assert blocks_of(part) == ((0,), (1, 2, 4), (3, 5, 6))
        assert int(part.sizes.max()) == 3
        assert orbit_walk(7, 2)["conjugate_block"] == (0, 2, 1)
        assert part.self_conjugate.tolist() == [True, False, False]

    def test_k3_n10(self):
        part = eigen_partition(decompose(10, 3))
        assert set(blocks_of(part)) == {(0,), (5,), (1, 3, 7, 9), (2, 4, 6, 8)}
        assert int(part.sizes.max()) == 4
        for j, blk in enumerate(blocks_of(part)):
            if len(blk) == 4:
                assert part.self_conjugate[j]

    def test_k1_gives_singletons(self):
        part = eigen_partition(decompose(5, 1))
        assert blocks_of(part) == tuple((x,) for x in range(5))
        assert int(part.sizes.max()) == 1

    def test_largest_prime_of_n_prime(self):
        # n' = 1 (k = 6, n = 36) has no prime factor and reads 1
        for n in range(2, 300):
            for k in {k for k in (2, 6, n - 1) if k % n}:
                params = decompose(n, k)
                want = max((p for p, _ in factorize(params.n_prime)), default=1)
                assert eigen_partition(params).largest_prime == want, (n, k)
        assert eigen_partition(decompose(36, 6)).largest_prime == 1

    def test_cached_arrays_are_read_only(self):
        # the structure cache shares one partition: a write would corrupt later spectra
        part = structure(360, 7)
        fields = [field.name for field in dataclasses.fields(part)]
        assert fields == ["n_prime", "largest_prime", "starts", "sizes", "self_conjugate",
                          "fold", "mirror", "root_rank"]
        for name in fields[2:]:
            arr = getattr(part, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_blocks_ordered_by_smallest_member(self):
        part = eigen_partition(decompose(101, 10))
        mins = [blk[0] for blk in blocks_of(part)]
        assert mins == sorted(mins)
        assert blocks_of(part)[0] == (0,)

    @pytest.mark.parametrize("n,k", [(7, 2), (10, 3), (101, 10), (99, 10),
                                     (64, 3), (243, 2), (360, 7)])
    def test_partition_properties(self, n, k):
        params = decompose(n, k)
        part = eigen_partition(params)
        m = params.n_prime
        kp = params.k % m if m > 1 else 0
        walked = orbit_walk(m, params.k)
        assert blocks_of(part) == walked["blocks"]
        all_elements = [t for blk in blocks_of(part) for t in blk]
        assert sorted(all_elements) == list(range(m))        # totality + disjoint
        assert sum(part.sizes) == m
        for j, blk in enumerate(blocks_of(part)):
            members = set(blk)
            for t in blk:
                assert t * kp % m in members                 # closure
            assert part.sizes.max() % len(blk) == 0          # orbit size divides g1
            # conjugacy is all-or-nothing and symmetric: the reflections form the walked
            # partner block, which is block j itself exactly when it is self-conjugate
            partner = walked["conjugate_block"][j]
            assert {(m - t) % m for t in blk} == set(blocks_of(part)[partner])
            assert walked["conjugate_block"][partner] == j
            assert part.self_conjugate[j] == (partner == j)

    def test_lower_order_subset_of_multiples(self):
        # every x of orbit size g satisfies x = 0 mod n'/gcd(k^g - 1, n')
        for n, k in [(30, 7), (101, 10), (63, 2)]:
            params = decompose(n, k)
            part = eigen_partition(params)
            m = params.n_prime
            for j, blk in enumerate(blocks_of(part)):
                g = len(blk)
                divisor = m // math.gcd(pow(params.k, g, m) - 1, m)
                for t in blk:
                    assert t % divisor == 0


def assert_matches_orbit_walk(n, k):
    params = decompose(n, k)
    part = eigen_partition(params)
    want = orbit_walk(params.n_prime, params.k)
    assert blocks_of(part) == want["blocks"]
    assert tuple(part.sizes.tolist()) == want["sizes"]
    assert part.self_conjugate.tolist() == [c == j for j, c in enumerate(want["conjugate_block"])]
    assert int(part.sizes.max()) == orbit_summary(params).g1 == want["g1"]
    assert orbit_summary(params).upsilon == want["upsilon"]
    # the root layout: each member's half-spectrum index and sign, each root's rank
    m, members = params.n_prime, [t for blk in want["blocks"] for t in blk]
    assert part.fold.dtype == part.root_rank.dtype == np.int32 and part.mirror.dtype == np.int8
    assert part.fold.tolist() == [min(t, m - t) for t in members]
    assert part.mirror.tolist() == [-1 if 2 * t > m else 1 for t in members]
    assert part.root_rank.tolist() == [r for blk in want["blocks"] for r in range(len(blk))]


class TestEigenPartitionAgainstOrbitWalk:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4096), k=st.integers(1, 4095))
    def test_random_pairs(self, n, k):
        assume(k % n)
        assert_matches_orbit_walk(n, k)

    @pytest.mark.parametrize("k,n", [
        (12345, 100001),   # generic: composite n, coprime k
        (316, 99857),      # n = k^2 + 1
        (4, 100042),       # k shares the prime 2 with n; n' = 50021
        (2, 100003),       # prime n with primitive root k: one orbit of size n - 1
    ])
    def test_large_pairs(self, k, n):
        assert_matches_orbit_walk(n, k)

    def test_cap_rejects_before_allocating(self):
        with pytest.raises(ValueError, match="cap"):
            eigen_partition(decompose(10**12, 3))
        with pytest.raises(ValueError, match="cap"):
            structure(ORBIT_CAP + 2, 1)


def walked_table(n_prime: int, k: int) -> list[tuple[int, bool, int]]:
    """orbit_walk's blocks as sorted rows (size, self-conjugate, count)."""
    walk = orbit_walk(n_prime, k)
    rows = Counter((size, conj == j) for j, (size, conj)
                   in enumerate(zip(walk["sizes"], walk["conjugate_block"])))
    return sorted((size, self_conj, count) for (size, self_conj), count in rows.items())


class TestOrbitTable:
    def test_every_small_pair_is_the_partition_histogram(self):
        for n in range(2, 400):
            for k in range(1, n):
                params = decompose(n, k)
                part = eigen_partition(params)
                keys, counts = np.unique(2 * part.sizes + part.self_conjugate,
                                         return_counts=True)
                want = [(int(key) // 2, bool(key % 2), int(c)) for key, c in zip(keys, counts)]
                assert orbit_table(params) == want, (n, k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4096), k=st.integers(1, 4095), shared=st.sampled_from([1, 2, 3, 6]))
    def test_random_pairs_match_orbit_walk(self, n, k, shared):
        k, n = k * shared, n * shared  # shared > 1 puts common primes in (k, n)
        assume(k % n)
        params = decompose(n, k)
        assert orbit_table(params) == walked_table(params.n_prime, params.k)

    @pytest.mark.parametrize("k,n", [
        (12345, 100001), (316, 99857), (4, 100042), (2, 100003),
        (6, 2 * 3**9), (10, 2**4 * 5**6), (2, 3**10), (1, 97),
        (6, 12)])  # n' = 1: Z_1 is one self-conjugate singleton
    def test_structured_pairs_match_orbit_walk(self, k, n):
        params = decompose(n, k)
        assert orbit_table(params) == walked_table(params.n_prime, params.k)

    def test_square_plus_one_q_is_the_four_block_count(self):
        # the gumbel hypothesis reads q = n // 4 for the self-conjugate 4-blocks
        for k in range(3, 448):
            n = k * k + 1
            rows = orbit_table(decompose(n, k))
            assert n // 4 == sum(c for size, conj, c in rows if size == 4 and conj)
            assert [size for size, _, _ in rows] == [1, 4] and rows[-1][1]

    def test_summary_is_the_partition_summary(self):
        for n in range(2, 150):
            for k in range(1, n):
                params = decompose(n, k)
                part = eigen_partition(params)
                sizes, counts = np.unique(part.sizes, return_counts=True)
                g1 = int(part.sizes.max())
                lower = int(part.sizes[part.sizes < g1].sum())
                assert orbit_summary(params) == OrbitSummary(
                    g1=g1, blocks=part.sizes.size,
                    self_conjugate=int(part.self_conjugate.sum()),
                    histogram=dict(zip(sizes.tolist(), counts.tolist())),
                    upsilon=Fraction(lower, params.n_prime)), (n, k)

    def test_answers_past_the_orbit_cap(self):
        # the table walks no orbit, so only the walk keeps the cap; 10**12 + 39 is prime,
        # and 2 has the odd order (p - 1) / 2 mod it
        p = 10**12 + 39
        assert orbit_table(decompose(p, 2)) == [(1, True, 1), ((p - 1) // 2, False, 2)]
        params = decompose(7420738134810, 41)  # 2 * 3 * 5 * ... * 37
        assert sum(s * c for s, _, c in orbit_table(params)) == params.n_prime

    def test_rows_sum_to_n_prime(self):
        for n, k in [(2 * 3 * 5 * 7 * 11 * 13, 17), (2**17, 3), (199999, 2)]:
            params = decompose(n, k)
            assert sum(s * c for s, _, c in orbit_table(params)) == params.n_prime


class TestCounting:
    def test_upsilon_examples(self):
        assert orbit_summary(decompose(5, 1)).upsilon == 0
        assert orbit_summary(decompose(7, 6)).upsilon == Fraction(1, 7)
        assert orbit_summary(decompose(10, 3)).upsilon == Fraction(1, 5)

    def test_lower_order_count_examples(self):
        assert lower_order_count_ie(decompose(10, 3)) == 2
        assert lower_order_count_ie(decompose(7, 2)) == 1
        assert lower_order_count_ie(decompose(9, 1)) == 0

    def test_counting_identity_small_sweep(self):
        for m in range(2, 150):
            for k in range(1, m):
                if math.gcd(k, m) != 1:
                    continue
                params = decompose(m, k)
                direct = orbit_summary(params).upsilon * m
                assert direct.denominator == 1
                count = lower_order_count_ie(params)
                assert count == direct.numerator
                # the alternating sum never exceeds its leading term
                g1 = orbit_summary(params).g1
                g_1 = sum(math.gcd(pow(k, g1 // p, m) - 1, m)
                          for p, _ in factorize(g1))
                assert count <= g_1

    def test_upsilon_family_n_k_squared_plus_one(self):
        # so every block is a 4-block but {0} and {n/2}: theorem 5 needs no block check
        for k in [*range(2, 81), 255, 447]:
            n = k * k + 1
            part = structure(n, k)
            expected = Fraction(2, n) if n % 2 == 0 else Fraction(1, n)
            assert orbit_summary(decompose(n, k)).upsilon == expected
            assert int(part.sizes.max()) == 4


class TestGcdPowerBound:
    @pytest.mark.parametrize("k,b,c,sb,sc,lhs,bound", [
        (2, 4, 6, 1, 1, 1, 5),
        (3, 2, 2, -1, -1, 8, 10),
        (2, 3, 6, -1, -1, 7, 9),
    ])
    def test_examples(self, k, b, c, sb, sc, lhs, bound):
        got_lhs, got_bound, holds = gcd_power_bound(k, b, c, sb, sc)
        assert (got_lhs, got_bound) == (lhs, bound)
        assert holds

    def test_exhaustive_small(self):
        for k in range(2, 6):
            for b in range(1, 9):
                for c in range(1, 9):
                    for sb in (-1, 1):
                        for sc in (-1, 1):
                            assert gcd_power_bound(k, b, c, sb, sc)[2]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gcd_power_bound(1, 2, 2, 1, 1)
        with pytest.raises(ValueError):
            gcd_power_bound(2, 2, 2, 0, 1)


class TestClassifyRegime:
    """k^g = -1 or +1 (mod n) with the exact s, read through the theorem 3
    ("minus_one") and theorem 4 ("plus_one") hypotheses."""

    @staticmethod
    def classify(g, k, n):
        """(case, s, g1): the case of the one row that accepts (g, k, n)."""
        accepted = []
        for case, kind in (("minus_one", KIND_LSD3), ("plus_one", KIND_LSD4)):
            try:
                hyp = hypothesis_check(ExperimentConfig(kind=kind, k=k, n=n, g=g))
            except HypothesisError as exc:
                if "hypothesis violated" not in str(exc):
                    raise
            else:
                accepted.append((case, hyp["s"], hyp["g1"]))
        assert len(accepted) <= 1
        return accepted[0] if accepted else ("neither", None, None)

    def test_minus_one(self):
        r = self.classify(2, 10, 101)
        assert r == ("minus_one", 1, 4)

    def test_plus_one(self):
        r = self.classify(2, 10, 99)
        assert r == ("plus_one", 1, 2)

    def test_plus_one_trivial(self):
        r = self.classify(1, 1, 10)
        assert r == ("plus_one", 0, 1)

    def test_neither(self):
        case, s, _ = self.classify(2, 2, 7)
        assert case == "neither"
        assert s is None

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            self.classify(2, 2, 10)


def order_of(k: int, m: int) -> int:
    """ord_m(k) as eigen_partition forms g1: the lcm of _power_orders' top order at each
    prime power of m (1 when m = 1)."""
    return math.lcm(*(_power_orders(k, p, e)[e] for p, e in factorize(m)))


class TestPowerOrders:
    """_power_orders, the one order routine, against the order of k read off the brute-force
    walk (the size of the orbit of 1), and by its definition at powers too large to walk."""

    def test_values(self):
        assert order_of(2, 7) == 3
        assert order_of(10, 101) == 4
        assert order_of(2, 3**8) == 2 * 3**7
        assert order_of(5, 1) == 1

    def test_random_agrees_with_orbit_of_one(self):
        rnd = random.Random(0)
        for _ in range(200):
            m = rnd.randrange(2, 500)
            k = rnd.randrange(1, m)
            if math.gcd(k, m) != 1:
                continue
            g1 = orbit_walk(m, k)["g1"]
            params = decompose(m, k)
            assert order_of(k, m) == g1
            assert orbit_summary(params).g1 == int(eigen_partition(params).sizes.max()) == g1

    @pytest.mark.parametrize("m", [1, 2, 8, 16, 64, 1024, 4096,
                                   3, 9, 3**7, 5**4, 7**3, 11**2, 13**2, 2003])
    def test_prime_powers_agree_with_orbit_of_one(self, m):
        # mod 2^e with e >= 3 no unit has order phi(2^e): every odd k^2 = 1 (mod 8)
        ks = [k for k in range(1, max(m, 2)) if math.gcd(k, m) == 1]
        for k in ks[:400]:
            assert order_of(k, m) == orbit_walk(m, k)["g1"]

    @pytest.mark.parametrize("p", [2, 3, 5, 10007])
    def test_every_lift_up_to_n_cap_is_the_least_period(self, p):
        e = max(f for f in range(1, 64) if p**f <= N_CAP)
        for k in (p - 1, p + 1, 2 * p + 1, 3, 5):
            if k % p == 0:
                continue
            orders = _power_orders(k, p, e)
            assert len(orders) == e + 1 and orders[0] == 1
            for f, order in enumerate(orders[1:], start=1):
                mod = p**f
                assert pow(k, order, mod) == 1, (k, p, f)
                assert all(pow(k, order // q, mod) != 1 for q, _ in factorize(order)), (k, p, f)


class TestFactorsNPrimeOnce:
    """The table and the walk factor n' once, then each p - 1 for the order mod p; the lifts
    to p^f factor nothing."""

    @staticmethod
    def factorize_calls(monkeypatch, fn, params) -> list[int]:
        calls = []
        real = numtheory.factorize

        def recording(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(numtheory, "factorize", recording)
        fn(params)
        return calls

    def test_safe_prime_factors_n_prime_then_n_prime_minus_one(self, monkeypatch):
        n = 99999999995927  # prime, and (n - 1)/2 is prime
        assert self.factorize_calls(monkeypatch, orbit_summary, decompose(n, 3)) == [n, n - 1]

    @pytest.mark.parametrize("fn,n", [(orbit_table, 2**20 * 3**5 * 5**3),
                                      (eigen_partition, 2**6 * 3**3 * 5**2)])
    def test_no_prime_power_is_factored(self, monkeypatch, fn, n):
        calls = self.factorize_calls(monkeypatch, fn, decompose(n, 7))
        # n' and p - 1 = 1, 2, 4 for p = 2, 3, 5; never a modulus 2^f, 3^f or 5^f
        assert calls == [n, 1, 2, 4]
