"""Renyi-2 entropy of Gaussian-operator ensembles, bosons and fermions.

A phase-space point is a mode-space Green's function matrix n (plus a
weight); the density matrix is an ensemble average of normalized
Gaussian operators Lambda(n).  Purity is then an average of pairwise
Gaussian inner products,

    Tr rho^2 = < Tr[Lambda(n_i) Lambda(n_j)] >_{i != j},

which reduces to mode-space determinants:

    boson:    det[I + n_i + n_j]^{-1}
    fermion:  det[(I - n_i)(I - n_j) + n_i n_j]

and S_2 = -ln Tr rho^2.  Brute-force truncated-Fock constructions of
Lambda(n) back every determinant identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

__all__ = [
    "GaussianPhasePoint",
    "inner_product",
    "log_inner_product",
    "RenyiResult",
    "renyi_entropy",
    "boson_gaussian_matrix",
    "fermion_gaussian_matrix",
    "fock_inner_product",
]


@dataclass
class GaussianPhasePoint:
    """One Gaussian operator: statistics, Green's function, weight."""

    statistics: str  # "boson" | "fermion"
    n: np.ndarray  # (M, M) complex Green's function <a_i^dag a_j>-like
    weight: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        self.n = np.atleast_2d(np.asarray(self.n, dtype=complex))


def log_inner_product(p1: GaussianPhasePoint, p2: GaussianPhasePoint) -> complex:
    """log Tr[Lambda(n1) Lambda(n2)] via slogdet (overflow-safe)."""
    if p1.statistics != p2.statistics:
        raise ValueError("cannot pair boson with fermion points")
    eye = np.eye(p1.n.shape[0])
    if p1.statistics == "boson":
        sign, logabs = np.linalg.slogdet(eye + p1.n + p2.n)
        return -(np.log(sign.astype(complex)) + logabs)
    sign, logabs = np.linalg.slogdet((eye - p1.n) @ (eye - p2.n) + p1.n @ p2.n)
    return np.log(sign.astype(complex)) + logabs


def inner_product(p1: GaussianPhasePoint, p2: GaussianPhasePoint) -> complex:
    return complex(np.exp(log_inner_product(p1, p2)))


@dataclass
class RenyiResult:
    s2: float
    purity: complex
    error: float  # CLT bar on Re purity, propagated to S2 separately
    s2_error: float
    pairs: int
    sign_problem: bool


def renyi_entropy(points, pairing: str = "disjoint") -> RenyiResult:
    """S_2 = -ln <w_i w_j Tr[Lambda_i Lambda_j]> / <w>^2 over point pairs.

    ``pairing="disjoint"`` uses the non-overlapping pairs (0,1), (2,3),
    ... -- unbiased for i.i.d. sampled ensembles, honest CLT bar.
    ``pairing="all"`` is the full double sum over ordered pairs
    (including i = j), exact for small discrete weighted mixtures but
    O(count^2) and biased for sampled ensembles.  A sign problem is
    flagged when the purity estimate is not dominated by its positive
    real part.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("need at least two phase-space points")
    if pairing == "disjoint":
        idx_pairs = [(2 * k, 2 * k + 1) for k in range(len(points) // 2)]
        pair_weights = np.array(
            [points[i].weight * points[j].weight for i, j in idx_pairs]
        )
    elif pairing == "all":
        idx_pairs = [
            (i, j) for i in range(len(points)) for j in range(i, len(points))
        ]
        # unordered pairs stand in for both (i, j) and (j, i)
        pair_weights = np.array(
            [
                (1.0 if i == j else 2.0) * points[i].weight * points[j].weight
                for i, j in idx_pairs
            ]
        )
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    vals = np.empty(len(idx_pairs), dtype=complex)
    for k, (i, j) in enumerate(idx_pairs):
        vals[k] = pair_weights[k] * inner_product(points[i], points[j])
    weights = np.array([p.weight for p in points])
    if pairing == "disjoint":
        used = [i for pair in idx_pairs for i in pair]
        w_mean = weights[used].mean()
        purity = complex(vals.mean() / w_mean**2)
    else:
        purity = complex(vals.sum() / weights.sum() ** 2)
    if pairing == "disjoint":
        spread = float(np.std(vals.real) / math.sqrt(len(vals))) / abs(w_mean) ** 2
    else:
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
        pairs=len(idx_pairs),
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
