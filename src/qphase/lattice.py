"""Many-body Hilbert-space dimension counting.

The number of Fock states of N particles in M modes sets the cost of an
exact basis and is what makes phase-space methods necessary beyond a
few modes.  ``hilbert_dimension`` counts it exactly while the integer
stays cheap to build, and gives its log10 scale beyond that.
"""

from __future__ import annotations

import math

__all__ = ["hilbert_dimension"]


EXACT_DIGIT_LIMIT = 10_000


def hilbert_dimension(particles: int, modes: int, statistics: str = "boson"):
    """Exact many-body state count and its log10.

    Bosons: (modes + N - 1)! / ((modes - 1)! N!).  Fermions: 2**modes,
    the total over all fillings.  Returns (exact_int, log10_estimate);
    the exact integer is ``None`` beyond ``EXACT_DIGIT_LIMIT`` digits,
    where building it costs minutes and only the log10 scale is usable.
    """
    if particles < 0:
        raise ValueError("particle number must be >= 0")
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    if statistics == "boson":
        if particles == 0:
            return 1, 0.0
        log10 = (
            math.lgamma(modes + particles)
            - math.lgamma(modes)
            - math.lgamma(particles + 1)
        ) / math.log(10)
        if log10 > EXACT_DIGIT_LIMIT:
            return None, log10
        return math.comb(modes + particles - 1, particles), log10
    if statistics == "fermion":
        log10 = modes * math.log10(2.0)
        if log10 > EXACT_DIGIT_LIMIT:
            return None, log10
        return 1 << modes, log10
    raise ValueError(f"unknown statistics {statistics!r}")
