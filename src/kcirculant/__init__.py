"""Exact spectra of random k-circulant matrices, their limiting spectral
distributions, and spectral-radius extreme-value statistics."""

from . import extremes, limits, montecarlo, numtheory, spectral
from .extremes import *  # noqa: F401,F403
from .limits import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .numtheory import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__all__ = [*numtheory.__all__, *spectral.__all__, *limits.__all__,
           *extremes.__all__, *montecarlo.__all__]

__version__ = "0.1.0"
