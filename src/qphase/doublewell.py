"""Scenario-scale double-well squeezing and entanglement pipeline.

With zero inter-well tunneling the two wells evolve independently, each
a 2-mode coherent state under Kerr evolution, so every moment of the
four modes is a product of two closed-form Kerr moments
(``fock.kerr_moment``) and a scan costs the same at any atom number.
Beam-splitter mixing is handled in the Heisenberg picture as a 4x4 map
of the spin coefficient matrices, so one set of moment tensors per time
serves before and after it.  ``fock_check`` recomputes the tensors in
the truncated per-well Fock spaces at a small atom number, as a check
of the closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import spins
from .fock import FockBasis, StateVector, coherent_state, kerr_moment, well_hamiltonian_diagonal

__all__ = [
    "rb_interaction_matrix",
    "poisson_cutoff",
    "WellEvolution",
    "moment_tensors",
    "FockCheck",
    "fock_check",
    "DoubleWellPoint",
    "doublewell_scan",
]

# 87Rb scattering lengths near B = 9.131 G, in units of the Bohr radius;
# chi_ij is proportional to a_ij, normalized so chi_11 = 1.
RB_SCATTERING_LENGTHS = (100.4, 95.5, 80.8)  # a11, a22, a12


def rb_interaction_matrix(lengths=RB_SCATTERING_LENGTHS) -> np.ndarray:
    """chi from the scattering lengths (a11, a22, a12), normalized so chi_11 = 1."""
    a11, a22, a12 = lengths
    return np.array([[a11, a12], [a12, a22]], dtype=float) / a11


# Poisson tail weight that poisson_cutoff leaves out.
POISSON_TAIL = 1e-12


def poisson_cutoff(nbar: float) -> int:
    """Occupation cutoff keeping all but ~POISSON_TAIL of a Poisson(nbar) state.

    Returns 5 plus the smallest k with 1 - P(X > k) >= 1 - POISSON_TAIL in
    floating point, computed with the standard library; the tests hold it
    equal to scipy's ``poisson.isf(POISSON_TAIL, nbar) + 5``.  The tail
    P(X > k) is summed once, from an estimate k of the quantile until its
    terms fall below 2**-53 P(X = k), and k then moves by one pmf term
    per step.
    """
    nbar = float(nbar)  # numpy scalars would make the loops below about 3x slower
    if nbar == 0:
        return 1
    q = 1.0 - POISSON_TAIL
    # Cornish-Fisher: nbar + z sqrt(nbar) + (z^2 - 1) / 6, z = 7.03 for a 1e-12 tail
    k = max(round(nbar + 7.03 * math.sqrt(nbar) + 8.1), 1)
    pmf = math.exp(k * math.log(nbar) - nbar - math.lgamma(k + 1.0))  # P(X = k)
    tail, term, j = 0.0, pmf, k  # tail = P(X > k)
    while term > pmf * 2.0**-53:
        j += 1
        term *= nbar / j
        tail += term
    while 1.0 - tail < q:
        k += 1
        pmf *= nbar / k
        tail -= pmf
    while k > 0 and 1.0 - (tail + pmf) >= q:
        tail += pmf
        pmf *= k / nbar
        k -= 1
    return k + 5


@dataclass
class WellEvolution:
    """Diagonal Kerr evolution of one 2-mode well from a coherent start."""

    basis: FockBasis
    initial: StateVector
    energies: np.ndarray

    @classmethod
    def prepare(cls, alpha1: complex, alpha2: complex, chi: np.ndarray, cutoff=None):
        if cutoff is None:
            cutoff = max(
                poisson_cutoff(abs(alpha1) ** 2), poisson_cutoff(abs(alpha2) ** 2)
            )
        basis = FockBasis((cutoff, cutoff))
        state = coherent_state([alpha1, alpha2], basis)
        energies = well_hamiltonian_diagonal(chi, basis)
        return cls(basis, state, energies)

    def at_time(self, t: float) -> StateVector:
        amps = np.exp(-1j * self.energies * t) * self.initial.amplitudes
        return StateVector(self.basis, amps, self.initial.truncation_loss)


def _count_rows():
    """Creator and annihilator counts of the 16 entries <c_i^dag c_j> of G1
    and the 256 normally ordered <c_i^dag c_p^dag c_j c_q> behind G2, in
    that order over the joint modes c = (a1, a2, b1, b2), split by well:
    two integer arrays of shape (2 wells, 272 rows, 2 modes)."""
    unit = np.eye(4, dtype=np.int64)
    i1, j1 = np.indices((4, 4)).reshape(2, -1)
    i2, j2, p2, q2 = np.indices((4, 4, 4, 4)).reshape(4, -1)
    creators = np.concatenate([unit[i1], unit[i2] + unit[p2]])
    annihilators = np.concatenate([unit[j1], unit[j2] + unit[q2]])
    return tuple(c.reshape(-1, 2, 2).transpose(1, 0, 2).copy() for c in (creators, annihilators))


_CREATORS, _ANNIHILATORS = _count_rows()


def moment_tensors(alpha: float, chi: np.ndarray, t: float):
    """(G1, G2) at time t of both wells started in |alpha, alpha>, in the
    layout of ``spins.ProductEvaluator``, from the closed form.

    Each entry is a product of one Kerr moment per well, and
    G2[i, j, p, q] = <c_i^dag c_j c_p^dag c_q> is the normally ordered
    <c_i^dag c_p^dag c_j c_q> plus delta_jp G1[i, q].
    """
    wells = kerr_moment([alpha, alpha], chi, t, _CREATORS, _ANNIHILATORS)
    values = wells[0] * wells[1]
    g1, g2 = values[:16].reshape(4, 4), values[16:].reshape(4, 4, 4, 4)
    same = np.arange(4)
    g2[:, same, same, :] += g1[:, None, :]
    return g1, g2


def _time(tau: float, atoms_total: float, chi: np.ndarray) -> float:
    """The time t of dimensionless tau = chi_11 * N * t."""
    return tau / (chi[0, 0] * atoms_total) if atoms_total > 0 else 0.0


# The Fock check runs at this atom number (cutoff 32 per mode), and fails
# above this relative gap; the two computations agree to about 1e-14.
FOCK_CHECK_ATOMS = 20
FOCK_CHECK_TOLERANCE = 1e-9


@dataclass
class FockCheck:
    atoms: int
    tau: float
    max_relative_gap: float  # the worse of G1 and G2: max |gap| / max |Fock value|
    truncation_loss: float  # coherent-state weight beyond the Fock cutoff


def fock_check(tau: float, chi=None) -> FockCheck:
    """Check ``moment_tensors`` against the truncated Fock evaluator
    (``WellEvolution``, ``spins.ProductEvaluator``) at FOCK_CHECK_ATOMS
    atoms and ``tau``; raises RuntimeError when the gap exceeds
    FOCK_CHECK_TOLERANCE."""
    if chi is None:
        chi = rb_interaction_matrix()
    chi = np.asarray(chi, dtype=float)
    alpha = math.sqrt(FOCK_CHECK_ATOMS / 4.0)
    t = _time(tau, FOCK_CHECK_ATOMS, chi)
    state = WellEvolution.prepare(alpha, alpha, chi).at_time(t)
    fock = spins.ProductEvaluator(state, state)()
    closed = moment_tensors(alpha, chi, t)
    gap = max(float(np.abs(c - f).max() / np.abs(f).max()) for c, f in zip(closed, fock))
    if not gap <= FOCK_CHECK_TOLERANCE:
        raise RuntimeError(
            f"Fock check failed: closed-form G1/G2 differ from the Fock evaluator by a max "
            f"relative gap of {gap:.3e} (tolerance {FOCK_CHECK_TOLERANCE:g}) "
            f"at N = {FOCK_CHECK_ATOMS:g}, tau = {tau:g}"
        )
    return FockCheck(FOCK_CHECK_ATOMS, float(tau), gap, state.truncation_loss)


@dataclass
class DoubleWellPoint:
    """One row of the ``exact-doublewell`` CSV, its fields in column order;
    ``n0`` = |<JyA>| / 2 is the shot noise of ``s_db_theta`` and ``s_db_conj``."""

    tau: float
    s_db_theta: float
    s_db_conj: float
    n0: float
    s_plus_db: float
    s_minus_db: float
    e_product: float
    e_sum: float


def _db(variance: float, n0: float) -> float:
    """10 log10(variance / n0), floored at a variance of 1e-300."""
    return 10 * math.log10(max(variance, 1e-300) / n0)


def _best_product_theta(moments: spins.SpinMoments) -> float:
    """Grid angle minimizing the product of ``spins.cross_variances``."""
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 720, endpoint=False)
    var_minus, var_plus = spins.cross_variances(moments, thetas)
    return thetas[np.argmin(var_minus * var_plus)]


def doublewell_scan(
    atoms_total: float,
    taus,
    chi=None,
    mixing_angle: float = math.pi / 4,
    bs_phase: float = 0.0,
) -> list[DoubleWellPoint]:
    """Scan dimensionless time tau = chi_11 * N_A * t.

    ``atoms_total`` is the mean atom number over all four modes, split
    equally, i.e. alpha = sqrt(atoms_total / 4) per mode.  Per-well
    squeezing and pre-splitter S+- are reported alongside the
    post-beam-splitter entanglement criteria.  The moment tensors of each
    tau come from the closed form (``moment_tensors``), so no Fock basis
    is built and the cost does not grow with the atom number.
    """
    if chi is None:
        chi = rb_interaction_matrix()
    chi = np.asarray(chi, dtype=float)
    alpha = math.sqrt(atoms_total / 4.0)
    out = []
    for tau in np.atleast_1d(taus):
        tensors = moment_tensors(alpha, chi, _time(tau, atoms_total, chi))
        delta_theta = math.pi / 2 - cmath.phase(tensors[0][1, 0])  # <a2^dag a1> of well A
        matrices = spins.spin_matrices(delta_theta)
        pre = spins.spin_moments(matrices, tensors)
        theta = spins.optimal_theta(pre, well=0)
        n0 = 0.5 * abs(pre.mean(0, 2))
        n0_both = 0.5 * (abs(pre.mean(0, 2)) + abs(pre.mean(1, 2)))
        var_minus, var_plus = spins.cross_variances(pre, theta)

        post = spins.spin_moments(
            spins.beam_splitter_map(matrices, mixing_angle, bs_phase), tensors
        )
        out.append(DoubleWellPoint(
            float(tau),
            _db(spins.spin_variance(pre, theta, 0), n0),
            _db(spins.spin_variance(pre, theta + math.pi / 2, 0), n0),
            n0,
            _db(var_minus, n0_both),
            _db(var_plus, n0_both),
            *spins.entanglement_criteria(post, _best_product_theta(post), atoms_total),
        ))
    return out
