"""Exact few-mode quantum dynamics in a truncated number-state basis.

Covers the two-well, two-spin BEC entanglement study: Fock bases with
per-mode cutoffs and optional total-number sectors, coherent-state
preparation, Hamiltonian construction, unitary propagation, and the
closed-form Kerr oracle used to verify everything else.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

__all__ = [
    "CapacityError",
    "FockBasis",
    "StateVector",
    "coherent_state",
    "transfer_operator",
    "annihilation_operator",
    "well_hamiltonian_diagonal",
    "build_hamiltonian",
    "evolve",
    "kerr_oracle",
    "beam_splitter",
]

MAX_MODES = 6
DENSE_DIAG_LIMIT = 2000


class CapacityError(Exception):
    """Requested basis or Hamiltonian exceeds the exact-method budget."""


class FockBasis:
    """Occupation-number basis with per-mode cutoffs.

    ``cutoffs[i]`` is the largest occupation kept in mode i (inclusive).
    With ``total_number`` set, only states with sum(n) == N are kept.
    States are enumerated in ``itertools.product`` order, so in an
    unrestricted basis mode m has index stride prod_{k>m}(cutoff_k + 1).
    """

    def __init__(self, cutoffs, total_number=None):
        cutoffs = tuple(int(c) for c in cutoffs)
        if not 1 <= len(cutoffs) <= MAX_MODES:
            raise CapacityError(f"mode count must be 1-{MAX_MODES}")
        if any(c < 0 for c in cutoffs):
            raise ValueError("cutoffs must be non-negative")
        self.cutoffs = cutoffs
        self.total_number = total_number
        if total_number is None:
            occs = np.array(
                list(product(*(range(c + 1) for c in cutoffs))), dtype=np.int64
            )
        else:
            occs = np.array(
                [
                    occ
                    for occ in product(*(range(c + 1) for c in cutoffs))
                    if sum(occ) == total_number
                ],
                dtype=np.int64,
            )
            if occs.size == 0:
                raise ValueError("number sector is empty for these cutoffs")
        self.occupations = occs
        self._annihilators = {}

    @cached_property
    def index(self) -> dict:
        """Occupation tuple -> basis index, built on first use."""
        return {tuple(row): i for i, row in enumerate(self.occupations.tolist())}

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dimension(self) -> int:
        return len(self.occupations)

    def state_index(self, occupation) -> int:
        return self.index[tuple(occupation)]

    def annihilation(self, mode: int) -> sp.csr_matrix:
        """a_mode, built once per basis and shared by every caller.

        The returned matrix is the cached object itself: treat it as
        read-only.
        """
        if mode not in self._annihilators:
            self._annihilators[mode] = annihilation_operator(self, mode)
        return self._annihilators[mode]


@dataclass
class StateVector:
    basis: FockBasis
    amplitudes: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dimension,):
            raise ValueError("amplitude vector does not match basis dimension")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def expect(self, op) -> complex:
        return complex(np.vdot(self.amplitudes, op @ self.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2


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


def annihilation_operator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """a_mode in the given basis; requires an unrestricted basis.

    In product order lowering mode m is a fixed index offset, so row r
    holds sqrt(n_m + 1) at column r + stride_m whenever n_m(r) is below
    the cutoff.  Use ``basis.annihilation(mode)`` for the shared copy.
    """
    if basis.total_number is not None:
        raise ValueError("annihilation operators leave a fixed-number sector")
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} outside 0..{basis.mode_count - 1}")
    stride = math.prod(c + 1 for c in basis.cutoffs[mode + 1:])
    occ = basis.occupations[:, mode]
    raisable = occ < basis.cutoffs[mode]
    indptr = np.concatenate(([0], np.cumsum(raisable)))
    indices = np.flatnonzero(raisable) + stride
    data = np.sqrt(occ[raisable] + 1.0).astype(complex)
    return sp.csr_matrix(
        (data, indices, indptr), shape=(basis.dimension, basis.dimension)
    )


def transfer_operator(basis: FockBasis, i: int, j: int) -> sp.csr_matrix:
    """Number-conserving bilinear a_i^dag a_j; valid on sector bases too."""
    rows, cols, vals = [], [], []
    for col, occ in enumerate(basis.occupations):
        if i == j:
            if occ[i]:
                rows.append(col)
                cols.append(col)
                vals.append(float(occ[i]))
            continue
        if occ[j] == 0 or occ[i] >= basis.cutoffs[i]:
            continue
        target = list(occ)
        target[j] -= 1
        target[i] += 1
        key = tuple(target)
        if key not in basis.index:
            continue
        rows.append(basis.index[key])
        cols.append(col)
        vals.append(math.sqrt(occ[j] * (occ[i] + 1)))
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(basis.dimension, basis.dimension), dtype=complex
    )


def well_hamiltonian_diagonal(chi: np.ndarray, basis: FockBasis, modes=None) -> np.ndarray:
    """Diagonal of (1/2) sum_ij chi_ij a_i^dag a_j^dag a_j a_i over ``modes``."""
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    if modes is None:
        modes = range(basis.mode_count)
    modes = list(modes)
    occ = basis.occupations[:, modes].astype(float)
    diag = np.zeros(basis.dimension)
    for a, _ in enumerate(modes):
        for b, _ in enumerate(modes):
            if a == b:
                diag += 0.5 * chi[a, a] * occ[:, a] * (occ[:, a] - 1.0)
            else:
                diag += 0.5 * chi[a, b] * occ[:, a] * occ[:, b]
    return diag


def build_hamiltonian(omega: float, chi, basis: FockBasis) -> sp.csr_matrix:
    """Two-well four-mode Hamiltonian, modes ordered (a1, a2, b1, b2).

    H = omega sum_i (a_i^dag b_i + h.c.)
        + (1/2) sum_ij chi_ij a_i^dag a_j^dag a_j a_i  + {a -> b}.
    """
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    if basis.mode_count != 4:
        raise ValueError("two-well Hamiltonian needs exactly 4 modes")
    if chi.shape != (2, 2) or not np.allclose(chi, chi.T):
        raise ValueError("chi must be a symmetric 2x2 matrix")
    if basis.dimension > 4_000_000:
        raise CapacityError(f"basis dimension {basis.dimension} exceeds capacity")
    diag = well_hamiltonian_diagonal(chi, basis, modes=[0, 1])
    diag += well_hamiltonian_diagonal(chi, basis, modes=[2, 3])
    ham = sp.diags(diag).tocsr().astype(complex)
    if omega != 0.0:
        for i in range(2):
            hop = transfer_operator(basis, i, i + 2)
            ham = ham + omega * (hop + hop.conj().T)
    return ham


def _is_diagonal(ham) -> bool:
    if sp.issparse(ham):
        coo = ham.tocoo()
        return bool(np.all(coo.row == coo.col))
    return bool(np.count_nonzero(ham - np.diag(np.diag(ham))) == 0)


def _check_hermitian(ham) -> None:
    if sp.issparse(ham):
        delta = (ham - ham.conj().T).tocoo()
        scale = max(abs(ham).max(), 1e-300)
        if delta.nnz and np.abs(delta.data).max() > 1e-10 * scale:
            raise ValueError("Hamiltonian is not Hermitian")
    else:
        if not np.allclose(ham, np.conj(ham.T), atol=1e-10 * max(np.abs(ham).max(), 1)):
            raise ValueError("Hamiltonian is not Hermitian")


def evolve(state: StateVector, ham, t: float) -> StateVector:
    """exp(-i H t) |psi>, choosing diagonal / dense / Krylov propagation."""
    _check_hermitian(ham)
    psi = state.amplitudes
    if t == 0.0:
        return StateVector(state.basis, psi.copy(), state.truncation_loss)
    if _is_diagonal(ham):
        diag = ham.diagonal() if sp.issparse(ham) else np.diag(ham)
        out = np.exp(-1j * diag.real * t) * psi
    elif state.basis.dimension <= DENSE_DIAG_LIMIT:
        dense = ham.toarray() if sp.issparse(ham) else np.asarray(ham)
        evals, evecs = np.linalg.eigh(dense)
        out = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))
    else:
        op = ham if sp.issparse(ham) else sp.csr_matrix(ham)
        out = expm_multiply(-1j * t * op, psi)
    norm = np.linalg.norm(out)
    if abs(norm - state.norm) > 1e-8 * max(state.norm, 1.0):
        warnings.warn(f"evolution norm drift {abs(norm - state.norm):.2e}", stacklevel=2)
    return StateVector(state.basis, out, state.truncation_loss)


def kerr_oracle(alphas, chi, t: float) -> dict:
    """Closed-form coherent-state moments for the single-well Kerr model.

    Heisenberg solution a_i(t) = exp[-i sum_j chi_ij N_j t] a_i(0) for
    H = (1/2) sum_ij chi_ij a_i^dag a_j^dag a_j a_i.  Returns the means
    <a_i>, the matrix <a_i^dag a_j>, and number correlations <N_i N_j>.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    chi = np.atleast_2d(np.asarray(chi, dtype=float))
    m = alphas.size
    n_mean = np.abs(alphas) ** 2
    means = np.empty(m, dtype=complex)
    for i in range(m):
        log_factor = np.sum(n_mean * (np.exp(-1j * chi[i] * t) - 1.0))
        means[i] = alphas[i] * np.exp(log_factor)
    second = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                second[i, j] = n_mean[i]
                continue
            phases = np.exp(-1j * (chi[j] - chi[i]) * t) - 1.0
            second[i, j] = np.conj(alphas[i]) * alphas[j] * np.exp(np.sum(n_mean * phases))
    number_corr = np.outer(n_mean, n_mean) + np.diag(n_mean)
    return {"a": means, "adag_a": second, "n_n": number_corr}


def beam_splitter(
    state: StateVector, mixing_angle: float, phase: float = 0.0
) -> StateVector:
    """Inter-well mode rotation a_i -> cos(theta) a_i + e^{i phi} sin(theta) b_i.

    Acts on a 4-mode state ordered (a1, a2, b1, b2) and rotates both spin
    components.
    """
    if state.basis.mode_count != 4:
        raise ValueError("beam splitter expects a 4-mode state")
    if mixing_angle == 0.0:
        return StateVector(state.basis, state.amplitudes.copy(), state.truncation_loss)
    psi = state.amplitudes
    for i in (0, 1):
        hop = transfer_operator(state.basis, i, i + 2)  # a_i^dag b_i
        gen = np.exp(1j * phase) * hop - np.exp(-1j * phase) * hop.conj().T
        psi = expm_multiply(mixing_angle * gen, psi)
    return StateVector(state.basis, psi, state.truncation_loss)
