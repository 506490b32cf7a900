"""Explicit 4-mode references for the factorized double-well code.

Modes are ordered (a1, a2, b1, b2), so the symbolic operator factor
(well, mode, dag) of ``qphase.spins`` acts on joint mode 2 * well + mode.
"""

import numpy as np
from scipy.sparse.linalg import expm_multiply

from qphase.fock import StateVector


def joint_evaluator(state: StateVector):
    """Expectation functional of symbolic operators on a 4-mode state;
    the reference for ``spins.ProductEvaluator``."""
    psi, cache = state.amplitudes, {}

    def expect(op) -> complex:
        total = 0j
        for coeff, factors in op:
            if factors not in cache:
                vec = psi
                for well, mode, dag in reversed(factors):
                    a = state.basis.annihilation(2 * well + mode)
                    vec = (a.conj().T if dag else a) @ vec
                cache[factors] = np.vdot(psi, vec)
            total += coeff * cache[factors]
        return complex(total)

    return expect


def beam_splitter(state: StateVector, mixing_angle: float, phase: float = 0.0) -> StateVector:
    """Schroedinger-picture a_i -> cos(theta) a_i + e^{i phi} sin(theta) b_i
    on both spin components; the reference for ``spins.beam_splitter_map``."""
    psi = state.amplitudes
    for i in (0, 1):
        a, b = state.basis.annihilation(i), state.basis.annihilation(i + 2)
        hop = a.conj().T @ b  # a_i^dag b_i
        gen = np.exp(1j * phase) * hop - np.exp(-1j * phase) * hop.conj().T
        psi = expm_multiply(mixing_angle * gen, psi)
    return StateVector(state.basis, psi, state.truncation_loss)
