"""Schwinger spin moments, squeezing angles, and entanglement criteria.

Spin operators are built symbolically as sums of products of elementary
mode operators and evaluated on a product of two independent well
states, before or after a Heisenberg-picture beam splitter.

Symbol convention: (well, mode, dag) with well 0 = A, 1 = B and mode
0, 1 the two spin components of that well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

__all__ = [
    "SpinMoments",
    "op_elementary",
    "op_add",
    "op_scale",
    "op_mul",
    "op_dagger",
    "beam_splitter_map",
    "ProductEvaluator",
    "spin_moments",
    "optimal_theta",
    "spin_variance",
    "cross_variances",
    "EntanglementReport",
    "entanglement_criteria",
]

# operator index order used in mean/covariance arrays, per well: Jz, Jx, Jy
_JZ, _JX, _JY = 0, 1, 2


def op_elementary(well: int, mode: int, dag: bool):
    return [(1.0 + 0.0j, ((well, mode, dag),))]


def op_scale(op, c):
    return [(c * coeff, factors) for coeff, factors in op]


def op_add(*ops):
    out = []
    for op in ops:
        out.extend(op)
    return out


def op_mul(op1, op2):
    return [
        (c1 * c2, f1 + f2)
        for c1, f1 in op1
        for c2, f2 in op2
    ]


def op_dagger(op):
    return [
        (np.conj(c), tuple((w, m, not d) for (w, m, d) in reversed(factors)))
        for c, factors in op
    ]


def beam_splitter_map(op, mixing_angle: float, phase: float = 0.0):
    """Substitute the beam-splitter Heisenberg map into an operator.

    a_i -> cos(t) a_i + e^{i phi} sin(t) b_i,
    b_i -> cos(t) b_i - e^{-i phi} sin(t) a_i  (daggers conjugated).
    """
    cos_t = math.cos(mixing_angle)
    sin_t = math.sin(mixing_angle)

    def expand(symbol):
        well, mode, dag = symbol
        if well == 0:
            terms = [(cos_t, (0, mode, dag)), (np.exp(1j * phase) * sin_t, (1, mode, dag))]
        else:
            terms = [(cos_t, (1, mode, dag)), (-np.exp(-1j * phase) * sin_t, (0, mode, dag))]
        if dag:
            terms = [(np.conj(c), s) for c, s in terms]
        return terms

    out = []
    for coeff, factors in op:
        expansions = [expand(s) for s in factors]
        for combo in iproduct(*expansions):
            c = coeff
            syms = []
            for part_c, part_s in combo:
                c = c * part_c
                syms.append(part_s)
            out.append((c, tuple(syms)))
    return out


def _ladder(basis):
    """(mode, dag) -> a_mode or its dagger, for every mode of the basis."""
    ops = {}
    for m in range(basis.mode_count):
        a = basis.annihilation(m)
        ops[(m, False)] = a
        ops[(m, True)] = a.conj().T
    return ops


class ProductEvaluator:
    """Evaluates symbolic operators on a product state |psi_A> x |psi_B>.

    Each well state lives on its own 2-mode Fock basis, so cross-well
    expectation values factorize exactly; this is what makes the
    large-atom-number double-well runs tractable.  The ladder operators
    are the per-basis shared ones from ``FockBasis.annihilation``, so
    evaluators built on the same basis (one per time point of a scan)
    never rebuild them; each dagger is formed once here.  When both
    wells are the same state object, they share one expectation cache.
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

    def __call__(self, op) -> complex:
        total = 0.0 + 0.0j
        for coeff, factors in op:
            part = {0: [], 1: []}
            for well, mode, dag in factors:
                part[well].append((mode, dag))
            total += (
                coeff
                * self._well_expect(0, tuple(part[0]))
                * self._well_expect(1, tuple(part[1]))
            )
        return total


def _spin_ops(well: int, delta_theta: float):
    """Jz, Jx, Jy for one well with the phase shift applied to a2^dag a1."""
    up = op_elementary(well, 1, True)  # a2^dag
    down = op_elementary(well, 0, False)  # a1
    bilinear = op_scale(op_mul(up, down), np.exp(1j * delta_theta))
    bilinear_dag = op_dagger(bilinear)
    jx = op_scale(op_add(bilinear, bilinear_dag), 0.5)
    jy = op_scale(op_add(bilinear, op_scale(bilinear_dag, -1.0)), -0.5j)
    n2 = op_mul(up, op_elementary(well, 1, False))
    n1 = op_mul(op_elementary(well, 0, True), down)
    jz = op_scale(op_add(n2, op_scale(n1, -1.0)), 0.5)
    return jz, jx, jy


@dataclass
class SpinMoments:
    """First and symmetrized second spin moments for both wells.

    Index order is (JzA, JxA, JyA, JzB, JxB, JyB); ``covariance`` holds
    cov(J_i, J_j) = <{J_i, J_j}>/2 - <J_i><J_j>.
    """

    delta_theta: float
    means: np.ndarray  # (6,) real
    covariance: np.ndarray  # (6, 6) real symmetric

    def mean(self, well: int, component: int) -> float:
        return float(self.means[3 * well + component])


def spin_moments(expect, delta_theta: float) -> SpinMoments:
    """Assemble SpinMoments from an expectation functional."""
    ops = []
    for well in (0, 1):
        ops.extend(_spin_ops(well, delta_theta))
    means = np.array([expect(op) for op in ops])
    if np.abs(means.imag).max() > 1e-8 * (1 + np.abs(means.real).max()):
        raise ValueError("spin means acquired an imaginary part")
    cov = np.zeros((6, 6))
    for i in range(6):
        for j in range(i, 6):
            sym = 0.5 * (expect(op_mul(ops[i], ops[j])) + expect(op_mul(ops[j], ops[i])))
            cov[i, j] = cov[j, i] = sym.real - means[i].real * means[j].real
    return SpinMoments(delta_theta=delta_theta, means=means.real, covariance=cov)


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


def cross_variances(moments: SpinMoments, theta: float) -> tuple[float, float]:
    """(Delta^2(J_theta^A - J_theta^B), Delta^2(J_{theta+pi/2}^A + J_{theta+pi/2}^B))."""

    def directional(th, sign):
        c, s = math.cos(th), math.sin(th)
        u = np.zeros(6)
        u[_JZ], u[_JX] = c, s
        u[3 + _JZ], u[3 + _JX] = sign * c, sign * s
        return float(u @ moments.covariance @ u)

    return directional(theta, -1.0), directional(theta + math.pi / 2, +1.0)


def optimal_theta(moments: SpinMoments, well: int = 0):
    """Angle in (-pi/2, pi/2] minimizing Delta^2 J(theta); (theta, isotropic)."""
    base = 3 * well
    cov = moments.covariance
    a = 0.5 * (cov[base + _JZ, base + _JZ] - cov[base + _JX, base + _JX])
    b = cov[base + _JZ, base + _JX]
    if abs(a) < 1e-14 and abs(b) < 1e-14:
        return 0.0, True
    two_theta = math.atan2(-b, -a)
    theta = 0.5 * two_theta
    if theta <= -math.pi / 2:
        theta += math.pi
    elif theta > math.pi / 2:
        theta -= math.pi
    return theta, False


@dataclass
class EntanglementReport:
    theta: float
    n0: float
    var_minus: float  # Delta^2 (J_theta^A - J_theta^B)
    var_plus: float  # Delta^2 (J_{theta+pi/2}^A + J_{theta+pi/2}^B)
    e_product: float
    e_sum: float
    s_plus_db: float
    s_minus_db: float
    undefined: bool = False


def entanglement_criteria(moments: SpinMoments, theta=None) -> EntanglementReport:
    """Heisenberg-product and sum criteria on cross-well spin variances.

    Values below 1 certify inter-well entanglement; the dB values are
    10 log10(variance / n0) with n0 the two-well shot-noise reference.
    """
    if theta is None:
        theta, _ = optimal_theta(moments, well=0)
    jy_a = abs(moments.mean(0, _JY))
    jy_b = abs(moments.mean(1, _JY))
    denom = jy_a + jy_b
    var_minus, var_plus = cross_variances(moments, theta)
    if denom < 1e-14:
        return EntanglementReport(
            theta, 0.0, var_minus, var_plus, math.nan, math.nan, math.nan, math.nan, True
        )
    n0 = 0.5 * denom
    e_product = 2.0 * math.sqrt(max(var_minus, 0.0) * max(var_plus, 0.0)) / denom
    e_sum = (var_minus + var_plus) / denom
    s_plus_db = 10.0 * math.log10(max(var_minus, 1e-300) / n0)
    s_minus_db = 10.0 * math.log10(max(var_plus, 1e-300) / n0)
    return EntanglementReport(
        theta, n0, var_minus, var_plus, e_product, e_sum, s_plus_db, s_minus_db
    )
