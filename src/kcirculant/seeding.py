"""Trial inputs: deterministic per-trial seeds and the laws of the input entries."""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Counter-mode splitmix64 over (master, index).

    Distinct indices give distinct 64-bit seeds (the counter step is odd, the
    finalizer a bijection), so trials can run in any order or in parallel
    without sharing generator state.
    """
    z = (int(master_seed) + (int(trial_index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class InputLaw:
    """A mean-zero, unit-variance distribution for the matrix input entries."""

    def __init__(self, name: str, sampler):
        self.name = name
        self._sampler = sampler

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sampler(rng, size)


_SQRT3 = math.sqrt(3.0)

INPUT_LAWS = {
    "gaussian": InputLaw("gaussian", lambda rng, size: rng.standard_normal(size)),
    "centered_exponential": InputLaw("centered_exponential",
                                     lambda rng, size: rng.standard_exponential(size) - 1.0),
    "rademacher": InputLaw("rademacher",
                           lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0),
    "uniform": InputLaw("uniform", lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size)),
}

LAW_ALIASES = {"normal": "gaussian", "exp": "centered_exponential",
               "exponential": "centered_exponential"}


def input_law(name_or_law) -> InputLaw:
    if isinstance(name_or_law, InputLaw):
        return name_or_law
    key = LAW_ALIASES.get(name_or_law, name_or_law)
    try:
        return INPUT_LAWS[key]
    except KeyError:
        raise ValueError(f"unknown input law {name_or_law!r}; "
                         f"choose from {sorted(INPUT_LAWS)}") from None
