"""Renyi-2 entropy of Gaussian-operator ensembles, bosons and fermions.

A phase-space point is a mode-space Green's function matrix n (plus a
weight); the density matrix is an ensemble average of normalized
Gaussian operators Lambda(n).  Purity is then an average of pairwise
Gaussian inner products,

    Tr rho^2 = < Tr[Lambda(n_i) Lambda(n_j)] >_{i != j},

which reduces to mode-space determinants:

    boson:    det[I + n_i + n_j]^{-1}
    fermion:  det[(I - n_i)(I - n_j) + n_i n_j]

and S_2 = -ln Tr rho^2.  The inner products broadcast over stacked
points: a GaussianPhasePoint whose n has shape (..., M, M) stands for a
stack of points, so one call evaluates a whole block of pairs.
Brute-force truncated-Fock constructions of Lambda(n) back every
determinant identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import _cmul

__all__ = [
    "GaussianPhasePoint",
    "inner_product",
    "RenyiResult",
    "renyi_entropy",
    "boson_gaussian_matrix",
    "fermion_gaussian_matrix",
    "fock_inner_product",
]


@dataclass
class GaussianPhasePoint:
    """One Gaussian operator: statistics, Green's function, weight.

    ``n`` may also be a stack of shape (..., M, M), one Green's function
    per point; the inner products then pair the stacks element by element.
    """

    statistics: str  # "boson" | "fermion"
    n: np.ndarray  # (M, M) complex Green's function <a_i^dag a_j>-like
    weight: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        self.n = np.atleast_2d(np.asarray(self.n, dtype=complex))


def inner_product(p1: GaussianPhasePoint, p2: GaussianPhasePoint):
    """Tr[Lambda(n1) Lambda(n2)], exponentiated from its logarithm via
    slogdet (overflow-safe): a Python complex for one (M, M) pair.

    Broadcasts over the leading stack axes of ``n``: stacked points give
    an array with one value per pair.
    """
    if p1.statistics != p2.statistics:
        raise ValueError("cannot pair boson with fermion points")
    eye = np.eye(p1.n.shape[-1])
    if p1.statistics == "boson":
        sign, logabs = np.linalg.slogdet(eye + p1.n + p2.n)
        value = np.exp(-(np.log(sign.astype(complex)) + logabs))
    else:
        sign, logabs = np.linalg.slogdet((eye - p1.n) @ (eye - p2.n) + p1.n @ p2.n)
        value = np.exp(np.log(sign.astype(complex)) + logabs)
    return complex(value) if value.ndim == 0 else value


def _product(a, b):
    """Elementwise a * b, complex products rounded as the scalar product
    rounds them (``fock._cmul``).  Real products stay real, which keeps
    the temporaries of real-weighted ensembles small."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    return _cmul(a, b)


@dataclass
class RenyiResult:
    s2: float
    purity: complex
    error: float  # CLT bar on Re purity, propagated to S2 separately
    s2_error: float
    pairs: int
    sign_problem: bool


# pairs per inner_product call in renyi_entropy; bounds the temporaries
# of the stacked determinants (a few (PAIR_BLOCK, M, M) arrays)
PAIR_BLOCK = 512


def renyi_entropy(points, pairing: str = "disjoint") -> RenyiResult:
    """S_2 = -ln <w_i w_j Tr[Lambda_i Lambda_j]> / <w>^2 over point pairs.

    ``pairing="disjoint"`` uses the non-overlapping pairs (0,1), (2,3),
    ... -- unbiased for i.i.d. sampled ensembles, honest CLT bar.
    ``pairing="all"`` is the full double sum over ordered pairs
    (including i = j), exact for small discrete weighted mixtures but
    O(count^2) and biased for sampled ensembles.  A sign problem is
    flagged when the purity estimate is not dominated by its positive
    real part.

    The points' Green's functions are stacked once and the pairs are
    evaluated by ``inner_product`` in blocks of ``PAIR_BLOCK``, so memory
    stays bounded however many pairs there are (count^2 / 2 for ``all``).
    Every point must have the same statistics and mode count.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least two phase-space points")
    statistics = points[0].statistics
    if any(p.statistics != statistics for p in points):
        raise ValueError("cannot pair boson with fermion points")
    weights = np.array([p.weight for p in points])
    if pairing == "disjoint":
        left = np.arange(0, len(points) - 1, 2)
        right = left + 1
        pair_weights = _product(weights[left], weights[right])
    elif pairing == "all":
        left, right = np.triu_indices(len(points))
        # unordered pairs stand in for both (i, j) and (j, i)
        pair_weights = _product(
            _product(np.where(left == right, 1.0, 2.0), weights[left]), weights[right]
        )
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    stack = np.stack([p.n for p in points])
    vals = np.empty(len(left), dtype=complex)
    for start in range(0, len(left), PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        vals[block] = _product(
            pair_weights[block],
            inner_product(
                GaussianPhasePoint(statistics, stack[left[block]]),
                GaussianPhasePoint(statistics, stack[right[block]]),
            ),
        )
    if pairing == "disjoint":
        w_mean = weights[: 2 * len(left)].mean()
        purity = complex(vals.mean() / w_mean**2)
        spread = float(np.std(vals.real) / math.sqrt(len(vals))) / abs(w_mean) ** 2
    else:
        purity = complex(vals.sum() / weights.sum() ** 2)
        # approximate bar: treat unordered-pair terms as independent
        spread = float(np.std(vals.real) * math.sqrt(len(vals))) / abs(weights.sum()) ** 2
    sign_problem = bool(
        purity.real <= 0 or abs(purity.imag) > 3.0 * max(spread, 1e-300)
        and abs(purity.imag) > 1e-10 * abs(purity.real)
    )
    if purity.real > 0:
        s2 = -math.log(purity.real)
        s2_err = spread / purity.real
    else:
        s2, s2_err = math.nan, math.inf
    return RenyiResult(
        s2=s2,
        purity=purity,
        error=spread,
        s2_error=s2_err,
        pairs=len(left),
        sign_problem=sign_problem,
    )


# ---------------------------------------------------------------------------
# brute-force Fock-space oracles
# ---------------------------------------------------------------------------


def boson_gaussian_matrix(n: np.ndarray, cutoff: int) -> np.ndarray:
    """Dense truncated-Fock matrix of the normalized boson Lambda(n).

    Lambda = det(I + n)^{-1} exp[a^dag ln(n (I + n)^{-1}) a]; valid for
    n with spectrum in (0, ...) and accurate once x = n/(1+n) satisfies
    x^cutoff << 1.
    """
    from scipy.linalg import expm, logm

    from .fock import FockBasis, annihilation_operator

    n = np.atleast_2d(np.asarray(n, dtype=complex))
    modes = n.shape[0]
    eye = np.eye(modes)
    kernel = logm(n @ np.linalg.inv(eye + n))
    basis = FockBasis((cutoff,) * modes)
    ann = [annihilation_operator(basis, m).toarray() for m in range(modes)]
    exponent = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for i in range(modes):
        for j in range(modes):
            exponent += kernel[i, j] * (ann[i].conj().T @ ann[j])
    return expm(exponent) / np.linalg.det(eye + n)


def _jordan_wigner(modes: int) -> list:
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    ops = []
    for m in range(modes):
        mats = [sz] * m + [lower] + [np.eye(2)] * (modes - m - 1)
        full = mats[0]
        for mat in mats[1:]:
            full = np.kron(full, mat)
        ops.append(full)
    return ops


def fermion_gaussian_matrix(n: np.ndarray) -> np.ndarray:
    """Dense 2^M x 2^M matrix of the normalized fermion Lambda(n).

    Lambda = det(I - n) exp[a^dag ln(n (I - n)^{-1}) a] for Hermitian n
    with spectrum inside (0, 1).
    """
    from scipy.linalg import expm, logm

    n = np.atleast_2d(np.asarray(n, dtype=complex))
    modes = n.shape[0]
    eye = np.eye(modes)
    kernel = logm(n @ np.linalg.inv(eye - n))
    ann = _jordan_wigner(modes)
    exponent = np.zeros((2**modes, 2**modes), dtype=complex)
    for i in range(modes):
        for j in range(modes):
            exponent += kernel[i, j] * (ann[i].conj().T @ ann[j])
    return expm(exponent) * np.linalg.det(eye - n)


def fock_inner_product(n1: np.ndarray, n2: np.ndarray, statistics: str, cutoff: int = 25) -> complex:
    """Tr[Lambda(n1) Lambda(n2)] by explicit matrix construction."""
    if statistics == "boson":
        m1 = boson_gaussian_matrix(n1, cutoff)
        m2 = boson_gaussian_matrix(n2, cutoff)
    else:
        m1 = fermion_gaussian_matrix(n1)
        m2 = fermion_gaussian_matrix(n2)
    return complex(np.trace(m1 @ m2))
