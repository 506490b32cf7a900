"""Scenario-scale double-well squeezing and entanglement pipeline.

With zero inter-well tunneling the two wells evolve independently, so a
large-atom-number run is an exact product of two 2-mode Kerr evolutions.
Beam-splitter mixing is handled in the Heisenberg picture by operator
substitution, which keeps the computation in the per-well Fock spaces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import spins
from .fock import FockBasis, StateVector, coherent_state, well_hamiltonian_diagonal

__all__ = [
    "rb_interaction_matrix",
    "poisson_cutoff",
    "WellEvolution",
    "DoubleWellPoint",
    "doublewell_scan",
]

# 87Rb scattering lengths near B = 9.131 G, in units of the Bohr radius;
# chi_ij is proportional to a_ij, normalized so chi_11 = 1.
RB_SCATTERING_LENGTHS = (100.4, 95.5, 80.8)  # a11, a22, a12


def rb_interaction_matrix() -> np.ndarray:
    a11, a22, a12 = RB_SCATTERING_LENGTHS
    return np.array([[a11, a12], [a12, a22]]) / a11


# Poisson tail weight that poisson_cutoff leaves out.
POISSON_TAIL = 1e-12


def poisson_cutoff(nbar: float) -> int:
    """Occupation cutoff keeping all but ~POISSON_TAIL of a Poisson(nbar) state.

    The quantile is scipy's ``poisson.isf(POISSON_TAIL, nbar)``, computed
    the way scipy does it: ``special.pdtrik`` stepped down by one where
    the CDF already reaches 1 - POISSON_TAIL.  Importing scipy's stats
    package for it more than doubled the cold import of this module
    (1.3 s against 0.5 s).
    """
    if nbar == 0:
        return 1
    q = 1.0 - POISSON_TAIL
    k = math.ceil(special.pdtrik(q, nbar))
    below = max(k - 1, 0)
    if special.pdtr(below, nbar) >= q:
        k = below
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


@dataclass
class DoubleWellPoint:
    tau: float
    delta_theta: float
    theta: float
    n0_well: float
    s_db_theta: float
    s_db_conj: float
    n0_pair: float
    s_plus_db: float
    s_minus_db: float
    e_product: float
    e_sum: float


def _bilinear_mean(evaluator: spins.ProductEvaluator) -> complex:
    """<a2^dag a1> of well A."""
    op = spins.op_mul(spins.op_elementary(0, 1, True), spins.op_elementary(0, 0, False))
    return evaluator(op)


def _best_product_theta(moments: spins.SpinMoments) -> float:
    """Grid angle minimizing the product of ``spins.cross_variances``."""
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 720, endpoint=False)
    zero = np.zeros_like(thetas)

    def directional(th, sign):
        # rows are the spins.cross_variances direction vectors, one per angle
        c, s = np.cos(th), np.sin(th)
        u = np.stack([c, s, zero, sign * c, sign * s, zero], axis=1)
        return np.einsum("gi,ij,gj->g", u, moments.covariance, u)

    products = directional(thetas, -1.0) * directional(thetas + math.pi / 2, +1.0)
    return thetas[np.argmin(products)]


def doublewell_scan(
    atoms_total: float,
    taus,
    chi=None,
    mixing_angle: float = math.pi / 4,
    bs_phase: float = 0.0,
    cutoff=None,
) -> list[DoubleWellPoint]:
    """Scan dimensionless time tau = chi_11 * N_A * t.

    ``atoms_total`` is the mean atom number over all four modes, split
    equally, i.e. alpha = sqrt(atoms_total / 4) per mode.  Per-well
    squeezing and pre-splitter S+- are reported alongside the
    post-beam-splitter entanglement criteria.
    """
    if chi is None:
        chi = rb_interaction_matrix()
    chi = np.asarray(chi, dtype=float)
    alpha = math.sqrt(atoms_total / 4.0)
    evo = WellEvolution.prepare(alpha, alpha, chi, cutoff=cutoff)
    out = []
    for tau in np.atleast_1d(taus):
        t = tau / (chi[0, 0] * atoms_total) if atoms_total > 0 else 0.0
        state = evo.at_time(t)
        evaluator = spins.ProductEvaluator(state, state)
        delta_theta = math.pi / 2 - cmath.phase(_bilinear_mean(evaluator))
        pre = spins.spin_moments(evaluator, delta_theta)
        theta, _ = spins.optimal_theta(pre, well=0)
        n0_well = 0.5 * abs(pre.mean(0, 2))
        var_theta = pre.variance(theta, 0)
        var_conj = pre.variance(theta + math.pi / 2, 0)
        vm_pre, vp_pre = spins.cross_variances(pre, theta)
        n0_pair = 0.5 * (abs(pre.mean(0, 2)) + abs(pre.mean(1, 2)))

        def post_expect(op):
            return evaluator(spins.beam_splitter_map(op, mixing_angle, bs_phase))

        post = spins.spin_moments(post_expect, delta_theta)
        report = spins.entanglement_criteria(post, theta=_best_product_theta(post))
        out.append(
            DoubleWellPoint(
                tau=float(tau),
                delta_theta=delta_theta,
                theta=theta,
                n0_well=n0_well,
                s_db_theta=10 * math.log10(max(var_theta, 1e-300) / n0_well),
                s_db_conj=10 * math.log10(max(var_conj, 1e-300) / n0_well),
                n0_pair=n0_pair,
                s_plus_db=10 * math.log10(max(vm_pre, 1e-300) / n0_pair),
                s_minus_db=10 * math.log10(max(vp_pre, 1e-300) / n0_pair),
                e_product=report.e_product,
                e_sum=report.e_sum,
            )
        )
    return out
