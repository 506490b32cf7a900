"""Explicit references for code that computes the same thing faster.

In the 4-mode double-well references modes are ordered (a1, a2, b1, b2),
so the symbolic operator factor (well, mode, dag) of ``qphase.spins``
acts on joint mode 2 * well + mode.
"""

import math

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


def _monomial(fields, powers):
    out = np.ones(fields.shape[0], dtype=complex)
    for s, l in enumerate(powers):
        if l:
            out = out * fields[:, s] ** l
    return out


def _monomial_grad(fields, powers, s):
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial(fields, reduced)


def _monomial_hess(fields, powers, s, t):
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial_grad(fields, reduced, t)


def wigner_derivative(model, fields, zeta):
    """Truncated Wigner drift with every loss channel's gradient and
    Hessian rebuilt per component, zero terms included; the reference for
    ``wigner.WignerModel.derivative``."""
    n_comp = fields.shape[1]
    d = np.zeros_like(fields)
    if model.omega is not None:
        d += -1j * fields @ np.asarray(model.omega).T
    if model.chi is not None:
        density = np.abs(fields) ** 2
        d += -1j * (density @ np.asarray(model.chi).T) * fields
    for l, ch in enumerate(model.channels):
        mono = _monomial(fields, ch.powers)
        grads = [_monomial_grad(fields, ch.powers, s) for s in range(n_comp)]
        for s in range(n_comp):
            d[:, s] += -ch.rate * np.conj(grads[s]) * mono
            d[:, s] += math.sqrt(ch.rate) * np.conj(grads[s]) * zeta[:, l]
            for t in range(n_comp):
                hess = _monomial_hess(fields, ch.powers, s, t)
                d[:, s] += -0.5 * ch.rate * np.conj(hess) * grads[t]
    return d
