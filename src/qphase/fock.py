"""Exact few-mode quantum dynamics in a truncated number-state basis.

Covers the two-well, two-spin BEC entanglement study: Fock bases with
per-mode cutoffs, coherent-state preparation, ladder operators, the
diagonal of the Kerr well Hamiltonian, and the closed-form Kerr moments
(``kerr_moment``, ``kerr_oracle``) used to verify everything else.  Only
numpy is needed: a ladder operator is an index shift on the product-order
amplitude grid (``LadderOperator``), not a stored matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "CapacityError",
    "FockBasis",
    "StateVector",
    "coherent_state",
    "LadderOperator",
    "annihilation_operator",
    "well_hamiltonian_diagonal",
    "kerr_moment",
    "kerr_oracle",
]

MAX_MODES = 6


class CapacityError(Exception):
    """Requested basis exceeds the exact-method budget."""


class FockBasis:
    """Occupation-number basis with per-mode cutoffs.

    ``cutoffs[i]`` is the largest occupation kept in mode i (inclusive).
    States are enumerated in ``itertools.product`` order, so mode m has
    index stride prod_{k>m}(cutoff_k + 1).
    """

    def __init__(self, cutoffs):
        cutoffs = tuple(int(c) for c in cutoffs)
        if not 1 <= len(cutoffs) <= MAX_MODES:
            raise CapacityError(f"mode count must be 1-{MAX_MODES}")
        if any(c < 0 for c in cutoffs):
            raise ValueError("cutoffs must be non-negative")
        self.cutoffs = cutoffs
        grid = np.indices(tuple(c + 1 for c in cutoffs), dtype=np.int64)
        self.occupations = grid.reshape(len(cutoffs), -1).T.copy()

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dimension(self) -> int:
        return len(self.occupations)


@dataclass
class StateVector:
    basis: FockBasis
    amplitudes: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError("amplitude vector does not match basis dimension")


def coherent_state(alphas, basis: FockBasis) -> StateVector:
    """Truncated multi-mode coherent state with reported discarded weight."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if alphas.size != basis.mode_count:
        raise ValueError("one amplitude per mode required")
    tables = []
    for alpha, cutoff in zip(alphas, basis.cutoffs):
        n = np.arange(cutoff + 1)
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))
        mag = np.exp(n * np.log(np.abs(alpha)) - 0.5 * log_fact - 0.5 * np.abs(alpha) ** 2) \
            if alpha != 0 else np.where(n == 0, 1.0, 0.0)
        phase = np.exp(1j * n * np.angle(alpha))
        tables.append(mag * phase)
    amps = np.ones(basis.dimension, dtype=complex)
    for mode, table in enumerate(tables):
        amps *= table[basis.occupations[:, mode]]
    kept = float(np.vdot(amps, amps).real)
    loss = 1.0 - kept
    if loss > 1e-10:
        warnings.warn(
            f"coherent-state truncation discards probability {loss:.3e}",
            stacklevel=2,
        )
    return StateVector(basis, amps / math.sqrt(kept), truncation_loss=loss)


class LadderOperator:
    """a_mode, or its adjoint, on a ``FockBasis`` as an index shift.

    In product order the amplitudes form a grid of shape ``cutoffs + 1``,
    and lowering mode m moves the grid one step along axis m:
    (a psi)[.., n, ..] = sqrt(n + 1) psi[.., n + 1, ..], and the adjoint is
    the mirrored slice.  ``op @ psi`` applies it to an array whose first
    axis is the basis index, giving a complex array, and ``toarray()`` is
    the dense matrix; there is no operator-times-operator algebra.
    """

    def __init__(self, cutoffs, mode: int, dagger: bool = False):
        self.cutoffs, self.mode, self.dagger = tuple(cutoffs), mode, dagger
        self._grid = tuple(c + 1 for c in self.cutoffs)
        self._factors = np.sqrt(np.arange(1.0, self.cutoffs[mode] + 1))

    @property
    def H(self) -> LadderOperator:
        """The adjoint: a_mode^dag for a_mode and back."""
        return LadderOperator(self.cutoffs, self.mode, not self.dagger)

    def __matmul__(self, psi) -> np.ndarray:
        psi = np.asarray(psi)
        grid = psi.reshape(self._grid + psi.shape[1:])
        out = np.zeros(grid.shape, dtype=np.result_type(psi, complex))
        head = (slice(None),) * self.mode
        low, high = head + (slice(None, -1),), head + (slice(1, None),)
        target, source = (high, low) if self.dagger else (low, high)
        factors = self._factors.reshape((-1,) + (1,) * (grid.ndim - self.mode - 1))
        np.multiply(factors, grid[source], out=out[target])
        return out.reshape(psi.shape)

    def toarray(self) -> np.ndarray:
        return self @ np.eye(math.prod(self._grid), dtype=complex)


def annihilation_operator(basis: FockBasis, mode: int) -> LadderOperator:
    """a_mode in the given basis, a ``LadderOperator``; ``.H`` is its
    adjoint.  It stores only the basis cutoffs and sqrt(n + 1), so it is
    cheap to build where it is needed."""
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} outside 0..{basis.mode_count - 1}")
    return LadderOperator(basis.cutoffs, mode)


def well_hamiltonian_diagonal(chi: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Diagonal of (1/2) sum_ij chi_ij a_i^dag a_j^dag a_j a_i over every mode of ``basis``."""
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    occ = basis.occupations.astype(float)
    diag = np.zeros(basis.dimension)
    for a in range(basis.mode_count):
        for b in range(basis.mode_count):
            if a == b:
                diag += 0.5 * chi[a, a] * occ[:, a] * (occ[:, a] - 1.0)
            else:
                diag += 0.5 * chi[a, b] * occ[:, a] * occ[:, b]
    return diag


def _cmul(a, b) -> np.ndarray:
    """a * b, each part rounded as numpy's scalar complex product rounds it.

    numpy's array complex multiply fuses a multiply and an add on CPUs
    with FMA, and so rounds unlike its scalar product; four real products
    and two sums round as the scalar product does on every CPU, which
    keeps ``kerr_oracle``'s values, and the pair products of
    ``gaussian_entropy.renyi_entropy``, to the last bit.
    """
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def kerr_moment(alphas, chi, t: float, creators, annihilators) -> np.ndarray:
    """<adag^m a^n>(t) for every row of per-mode counts m = ``creators``,
    n = ``annihilators`` (integer arrays of shape (..., modes), broadcast
    against each other; the result has their shape without the last axis),
    of the coherent state |alphas> under H = (1/2) sum_ij chi_ij a_i^dag a_j^dag a_j a_i:
    conj(alpha)^m alpha^n exp[sum_l |alpha_l|^2 (e^{i theta_l t} - 1) + i t (E(m) - E(n))]
    with theta = chi (m - n) and E(k) = (1/2) k.chi.k - (1/2) diag(chi).k
    (Yurke & Stoler, PRL 57, 13 (1986); Kitagawa & Ueda, PRA 47, 5138 (1993)).

    Each row is computed alone, with elementwise products and sums along
    the mode axis only, so a row's value does not depend on the stack it
    is in.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    m, n = np.asarray(creators), np.asarray(annihilators)
    diff = m - n
    theta = np.sum(diff[..., None, :] * chi, axis=-1)
    # E(m) - E(n), chi symmetric
    energy = 0.5 * (np.sum((m + n) * theta, axis=-1) - np.sum(chi.diagonal() * diff, axis=-1))
    log_factor = np.sum(np.abs(alphas) ** 2 * (np.exp(1j * theta * t) - 1.0), axis=-1) + 1j * t * energy
    powers = [_cmul(alpha.conj() ** m[..., k], alpha ** n[..., k]) for k, alpha in enumerate(alphas)]
    return _cmul(reduce(_cmul, powers), np.exp(log_factor))


def kerr_oracle(alphas, chi, t: float) -> dict:
    """The closed-form means <a_i> of the single-well Kerr model, as ``"a"``."""
    unit = np.eye(np.size(alphas), dtype=int)
    return {"a": kerr_moment(alphas, chi, t, 0 * unit, unit)}
