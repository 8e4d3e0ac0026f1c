"""The four benchmark workloads: what each pass runs and how its inputs are drawn.

Every workload is a list of operations per pass. The workload seed picks each
operation's inputs from a fixed pool whose reference outputs were recorded
once (see record.py), so any seed yields checkable inputs and the library only
ever receives those generated inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 20261017
MASTER_SEEDS_PER_COMMAND = 8
PAIRS_PER_CATEGORY = 16
N_RANGE = (100_000, 200_000)


@dataclass(frozen=True)
class CliOp:
    """One `kcirc` command; outputs land in the run's scratch directory."""

    label: str
    argv: tuple
    seed: int | None = None
    report: bool = False   # writes a JSON report with --out
    csv: bool = False      # writes per-trial radii with --csv
    stdout_json: bool = False
    slot: str = ""         # position in a pass; timings are summarized per slot

    @property
    def ref_key(self) -> str:
        return f"{self.label}@{self.seed}" if self.seed is not None else self.label

    name = ref_key

    def full_argv(self, out_dir: str) -> list[str]:
        argv = list(self.argv)
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.report:
            argv += ["--out", f"{out_dir}/report.json"]
        if self.csv:
            argv += ["--csv", f"{out_dir}/radii.csv"]
        return argv


@dataclass(frozen=True)
class SpectrumOp:
    """One exact formula_spectrum on a cold structure cache (no export)."""

    k: int
    n: int
    input_seed: tuple
    slot: str = ""

    @property
    def ref_key(self) -> str:  # the recorded partition the invariants use
        return f"partition@{self.k},{self.n}"

    @property
    def name(self) -> str:
        return f"spectrum@{self.k},{self.n}"


@dataclass(frozen=True)
class Command:
    """A pooled `kcirc` experiment command; it always writes a JSON report."""

    label: str
    argv: tuple
    csv: bool = False
    seeds: int = MASTER_SEEDS_PER_COMMAND  # size of its master-seed pool


@dataclass
class Workload:
    name: str
    commands: list = field(default_factory=list)
    warmup: list = field(default_factory=list)     # untimed, unchecked argv lists

    def master_seed_pool(self, command: Command) -> list[int]:
        index = self.commands.index(command)
        rng = np.random.default_rng([POOL_SEED, _stable_id(self.name), index])
        return [int(s) for s in rng.integers(1, 2**31, command.seeds)]

    def _op(self, command: Command, seed: int) -> CliOp:
        return CliOp(command.label, command.argv, seed, report=True, csv=command.csv,
                     slot=command.label)

    def draw_pass(self, rng: np.random.Generator, pass_index: int) -> list:
        return [self._op(c, int(rng.choice(self.master_seed_pool(c))))
                for c in self.commands]

    def reference_ops(self) -> list:
        return [self._op(c, seed) for c in self.commands
                for seed in self.master_seed_pool(c)]


class StructureScan(Workload):
    """Large (k, n) pairs in four categories, two per category and pass."""

    def draw_pass(self, rng, pass_index):
        ops = []
        for category, pairs in structure_pool().items():
            half = len(pairs) // 2
            for size, lo, hi in (("small", 0, half), ("large", half, len(pairs))):
                k, n = pairs[int(rng.integers(lo, hi))]
                input_seed = (int(rng.integers(0, 2**31)), pass_index)
                slot = f"{category}/{size}-n"
                ops.append(partition_op(k, n, slot=f"{slot}/partition"))
                ops.append(SpectrumOp(k, n, input_seed, slot=f"{slot}/spectrum"))
        order = rng.permutation(len(ops) // 2)
        return [op for i in order for op in ops[2 * i: 2 * i + 2]]

    def reference_ops(self):
        return [partition_op(k, n) for pairs in structure_pool().values()
                for k, n in pairs]


def partition_op(k: int, n: int, slot: str = "") -> CliOp:
    return CliOp(f"partition@{k},{n}",
                 ("partition", "--k", str(k), "--n", str(n), "--json"),
                 stdout_json=True, slot=slot)


def _stable_id(name: str) -> int:
    return sum((i + 1) * ord(c) for i, c in enumerate(name))


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % d for d in range(2, math.isqrt(m) + 1))


def _n_prime(n: int, k: int) -> int:
    g = math.gcd(n, k)
    while g > 1:
        n //= g
        g = math.gcd(n, k)
    return n


@functools.cache
def structure_pool() -> dict[str, list[tuple[int, int]]]:
    """Fixed pool of (k, n) pairs per category, each list sorted by n."""
    rng = np.random.default_rng([POOL_SEED, 4])
    lo, hi = N_RANGE
    pool = {"generic": [], "k2_plus_1": [], "shared_primes": [], "prime_n": []}
    while len(pool["generic"]) < PAIRS_PER_CATEGORY:
        n = int(rng.integers(lo, hi + 1))
        k = int(rng.integers(2, n))
        r = math.isqrt(n - 1)
        if math.gcd(k, n) == 1 and not _is_prime(n) and r * r + 1 != n:
            pool["generic"].append((k, n))
    ks = rng.choice(np.arange(math.isqrt(lo) + 1, math.isqrt(hi - 1) + 1),
                    PAIRS_PER_CATEGORY, replace=False)
    pool["k2_plus_1"] = [(int(k), int(k) * int(k) + 1) for k in ks]
    while len(pool["shared_primes"]) < PAIRS_PER_CATEGORY:
        p = int(rng.choice([2, 3, 5, 7]))
        n = p * int(rng.integers(lo // p + 1, hi // p + 1))
        k = p * int(rng.integers(1, 1000))
        if _n_prime(n, k) >= n // 16:  # structural zeros, but a large n'
            pool["shared_primes"].append((k, n))
    while len(pool["prime_n"]) < PAIRS_PER_CATEGORY:
        n = int(rng.integers(lo, hi + 1))
        if _is_prime(n):
            pool["prime_n"].append((int(rng.integers(2, n)), n))
    return {cat: sorted(set(pairs), key=lambda p: (p[1], p[0]))
            for cat, pairs in pool.items()}


WORKLOADS = {
    "lsd-radial": Workload(
        "lsd-radial",
        commands=[
            Command("lsd3_k100_n10001", ("lsd", "--theorem", "3", "--k", "100",
                                         "--n", "10001", "--trials", "2")),
            Command("lsd4_k100_n9999", ("lsd", "--theorem", "4", "--k", "100",
                                        "--n", "9999", "--trials", "2")),
            Command("lsd2_k2_n6561", ("lsd", "--theorem", "2", "--k", "2",
                                      "--n", "6561", "--trials", "3")),
            # one g=3 trial costs 8-10 s depending on the draw, and a run fits two
            # passes, so a single master seed keeps run_s comparable across seeds
            Command("cube_plus_g3", ("lsd", "--theorem", "4", "--k", "11", "--n", "665",
                                     "--g", "3", "--law", "exp", "--trials", "1"),
                    seeds=1),
        ],
        warmup=[["lsd", "--theorem", "3", "--k", "3", "--n", "10", "--trials", "2"]],
    ),
    "gumbel-trials": Workload(
        "gumbel-trials",
        commands=[
            Command("gumbel_kk70_gaussian", ("gumbel", "--kk", "70", "--trials", "1000"),
                    csv=True),
            Command("gumbel_kk70_exp", ("gumbel", "--kk", "70", "--trials", "1000",
                                        "--law", "exp"), csv=True),
            Command("gumbel_kk100_gaussian", ("gumbel", "--kk", "100", "--trials", "2000"),
                    csv=True),
        ],
        warmup=[["gumbel", "--kk", "4", "--trials", "8"]],
    ),
    "oracle-sweep": Workload(
        "oracle-sweep",
        commands=[Command("verify_nmax40", ("verify", "--nmax", "40", "--samples", "5"))],
        warmup=[["verify", "--nmax", "6", "--samples", "1"]],
    ),
    "structure-scan": StructureScan(
        "structure-scan",
        warmup=[["partition", "--k", "2", "--n", "9", "--json"]],
    ),
}
