"""Schwinger spin moments, squeezing angles, and entanglement criteria.

The joint modes of the two wells are c = (a1, a2, b1, b2): well A holds
a1, a2 and well B holds b1, b2.  Every spin component is a bilinear
J_k = c^dag M_k c with a 4x4 coefficient matrix M_k, and the beam
splitter is a 4x4 mode transform c -> U c, so moments before and after
it come from the same two moment tensors (G1, G2) of the product state
|psi_A> x |psi_B>.  The double-well scan takes them from the closed-form
Kerr moments (``doublewell.moment_tensors``); ``ProductEvaluator``
evaluates them in the per-well Fock spaces, which the run's Fock check
compares with the closed form.  ``entanglement_criteria`` gives the
product and sum criteria on the cross-well variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock

__all__ = [
    "SpinMoments",
    "spin_matrices",
    "beam_splitter_map",
    "ProductEvaluator",
    "spin_moments",
    "optimal_theta",
    "spin_variance",
    "cross_variances",
    "entanglement_criteria",
]

# operator index order used in mean/covariance arrays, per well: Jz, Jx, Jy
_JZ, _JX, _JY = 0, 1, 2


def spin_matrices(delta_theta: float) -> np.ndarray:
    """(6, 4, 4) matrices M_k of (JzA, JxA, JyA, JzB, JxB, JyB).

    Per well, Jz = (n2 - n1)/2 and Jx + i Jy = e^{i delta_theta} a2^dag a1.
    """
    phase = np.exp(1j * delta_theta)
    # Jz, Jx, Jy on one well's modes (1, 2); np.kron puts them on well A or B
    one_well = 0.5 * np.array([
        [[-1, 0], [0, 1]],
        [[0, np.conj(phase)], [phase, 0]],
        [[0, 1j * np.conj(phase)], [-1j * phase, 0]],
    ])
    return np.concatenate([np.kron(np.diag([1, 0]), one_well), np.kron(np.diag([0, 1]), one_well)])


def beam_splitter_map(matrices, mixing_angle: float, phase: float = 0.0) -> np.ndarray:
    """U^dag M U for the Heisenberg-picture beam splitter c -> U c,

    a_i -> cos(t) a_i + e^{i phi} sin(t) b_i,
    b_i -> cos(t) b_i - e^{-i phi} sin(t) a_i.
    """
    cos_t, sin_t = math.cos(mixing_angle), math.sin(mixing_angle)
    mix = np.array([[cos_t, np.exp(1j * phase) * sin_t], [-np.exp(-1j * phase) * sin_t, cos_t]])
    u = np.kron(mix, np.eye(2))  # the same 2x2 mix of (a_i, b_i) for both i
    return u.conj().T @ matrices @ u


def _ladder(basis):
    """(mode, dag) -> a_mode or its dagger, for every mode of the basis."""
    ops = {}
    for m in range(basis.mode_count):
        a = fock.annihilation_operator(basis, m)
        ops[(m, False)] = a
        ops[(m, True)] = a.H
    return ops


class ProductEvaluator:
    """Moment tensors of a product state |psi_A> x |psi_B>.

    Each well state lives on its own 2-mode Fock basis, so a joint
    expectation factorizes into one ordered ladder string per well.  The
    ladder operators come from ``fock.annihilation_operator``, built once
    per mode of each well here: numpy index shifts on the well's amplitude
    grid (``fock.LadderOperator``), so a ladder string costs one slice
    multiply per factor.  When both wells are the same state object, they
    share one ladder set and one expectation cache.
    """

    def __init__(self, state_a, state_b):
        self.psis = (state_a.amplitudes, state_b.amplitudes)
        ops, cache = _ladder(state_a.basis), {}
        same = state_b is state_a
        self._ops = (ops, ops if same else _ladder(state_b.basis))
        self._cache = (cache, cache if same else {})

    def _well_expect(self, well: int, factors) -> complex:
        cache = self._cache[well]
        if factors not in cache:
            vec = self.psis[well]
            for symbol in reversed(factors):
                vec = self._ops[well][symbol] @ vec
            cache[factors] = complex(np.vdot(self.psis[well], vec))
        return cache[factors]

    def _expect(self, string) -> complex:
        """<psi_A psi_B| product of (joint mode, dag) factors |psi_A psi_B>."""
        part = ([], [])
        for mode, dag in string:
            part[mode // 2].append((mode % 2, dag))
        return self._well_expect(0, tuple(part[0])) * self._well_expect(1, tuple(part[1]))

    def __call__(self):
        """(G1, G2) with G1[i, j] = <c_i^dag c_j> and
        G2[i, j, p, q] = <c_i^dag c_j c_p^dag c_q>."""
        g1 = [self._expect(((i, True), (j, False))) for i, j in np.ndindex(4, 4)]
        g2 = [
            self._expect(((i, True), (j, False), (p, True), (q, False)))
            for i, j, p, q in np.ndindex(4, 4, 4, 4)
        ]
        return np.reshape(g1, (4, 4)), np.reshape(g2, (4, 4, 4, 4))


@dataclass
class SpinMoments:
    """First and symmetrized second spin moments for both wells.

    Index order is (JzA, JxA, JyA, JzB, JxB, JyB); ``covariance`` holds
    cov(J_i, J_j) = <{J_i, J_j}>/2 - <J_i><J_j>.
    """

    means: np.ndarray  # (6,) real
    covariance: np.ndarray  # (6, 6) real symmetric

    def mean(self, well: int, component: int) -> float:
        return float(self.means[3 * well + component])


def spin_moments(matrices, tensors) -> SpinMoments:
    """Moments of J_k = c^dag M_k c from the tensors (G1, G2) in the layout
    of ``ProductEvaluator``: <J_k> = sum M_k[i, j] G1[i, j] and
    <J_k J_l> = sum M_k[i, j] M_l[p, q] G2[i, j, p, q]."""
    g1, g2 = tensors
    flat = np.reshape(matrices, (len(matrices), 16))
    means = flat @ g1.reshape(16)
    if np.abs(means.imag).max() > 1e-8 * (1 + np.abs(means.real).max()):
        raise ValueError("spin means acquired an imaginary part")
    second = flat @ g2.reshape(16, 16) @ flat.T
    sym = 0.5 * (second + second.T).real
    cov = sym - np.outer(means.real, means.real)
    return SpinMoments(means=means.real, covariance=cov)


def spin_variance(moments: SpinMoments, theta: float, well: int) -> float:
    """Variance of J(theta) = cos(theta) Jz + sin(theta) Jx in one well."""
    c, s = math.cos(theta), math.sin(theta)
    base = 3 * well
    cov = moments.covariance
    return float(
        c * c * cov[base + _JZ, base + _JZ]
        + s * s * cov[base + _JX, base + _JX]
        + 2 * c * s * cov[base + _JZ, base + _JX]
    )


def cross_variances(moments: SpinMoments, theta):
    """(Delta^2(J_theta^A - J_theta^B), Delta^2(J_{theta+pi/2}^A + J_{theta+pi/2}^B)).

    ``theta`` may be an array of angles; both variances then have its shape.
    """

    def directional(th, sign):
        c, s = np.cos(th), np.sin(th)
        zero = np.zeros_like(c)
        u = np.stack([c, s, zero, sign * c, sign * s, zero], axis=-1)
        return np.einsum("...i,ij,...j->...", u, moments.covariance, u)

    return directional(theta, -1.0), directional(theta + math.pi / 2, +1.0)


def optimal_theta(moments: SpinMoments, well: int = 0) -> float:
    """Angle in (-pi/2, pi/2] minimizing Delta^2 J(theta); 0.0 when the
    variance is isotropic in the Jz-Jx plane."""
    base = 3 * well
    cov = moments.covariance
    a = 0.5 * (cov[base + _JZ, base + _JZ] - cov[base + _JX, base + _JX])
    b = cov[base + _JZ, base + _JX]
    if abs(a) < 1e-14 and abs(b) < 1e-14:
        return 0.0
    two_theta = math.atan2(-b, -a)
    theta = 0.5 * two_theta
    if theta <= -math.pi / 2:
        theta += math.pi
    elif theta > math.pi / 2:
        theta -= math.pi
    return theta


def entanglement_criteria(moments: SpinMoments, theta: float, atoms: float) -> tuple[float, float]:
    """(e_product, e_sum): the Heisenberg-product and sum criteria on the
    cross-well spin variances at angle theta, normalized by
    |<JyA>| + |<JyB>|.

    Values below 1 certify inter-well entanglement; both are NaN when the
    two wells' mean spins <Jy> vanish against the mean atom number
    `atoms` of both wells (their sum below 1e-14 atoms), so the criteria
    do not depend on the scale of N.
    """
    denom = abs(moments.mean(0, _JY)) + abs(moments.mean(1, _JY))
    if denom < 1e-14 * atoms:
        return math.nan, math.nan
    var_minus, var_plus = cross_variances(moments, theta)
    e_product = 2.0 * math.sqrt(max(var_minus, 0.0) * max(var_plus, 0.0)) / denom
    return e_product, (var_minus + var_plus) / denom
