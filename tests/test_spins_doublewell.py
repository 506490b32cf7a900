import cmath
import math

import numpy as np
import pytest

from qphase import spins
from qphase.doublewell import (
    WellEvolution,
    doublewell_scan,
    poisson_cutoff,
    rb_interaction_matrix,
)
from qphase.fock import FockBasis, StateVector, coherent_state

from oracles import beam_splitter, joint_evaluator


def _small_alpha_setup(t=0.35):
    """Tiny double well evolved exactly, as a joint 4-mode state and as a
    product of two well states; both must give identical spin moments."""
    chi = rb_interaction_matrix()
    alpha = 0.7
    evo = WellEvolution.prepare(alpha, alpha, chi, cutoff=7)
    well = evo.at_time(t)

    joint_basis = FockBasis((7, 7, 7, 7))
    joint = coherent_state([alpha, alpha, alpha, alpha], joint_basis)
    from qphase.fock import well_hamiltonian_diagonal

    diag = well_hamiltonian_diagonal(chi, joint_basis, modes=[0, 1])
    diag += well_hamiltonian_diagonal(chi, joint_basis, modes=[2, 3])
    amps = np.exp(-1j * diag * t) * joint.amplitudes
    joint_t = StateVector(joint_basis, amps)
    return well, joint_t


def test_symbolic_algebra_dagger_and_mul():
    op = spins.op_mul(spins.op_elementary(0, 1, True), spins.op_elementary(0, 0, False))
    dag = spins.op_dagger(op)
    # (a2^dag a1)^dag = a1^dag a2
    assert dag == [(1.0 - 0.0j, ((0, 0, True), (0, 1, False)))]
    scaled = spins.op_scale(op, 2.0j)
    assert scaled[0][0] == 2.0j


def test_product_evaluator_matches_joint_evaluator():
    """Cross-validation: factorized product evaluation equals the explicit
    4-mode evaluation, including after the Heisenberg beam splitter."""
    well, joint_t = _small_alpha_setup()
    prod = spins.ProductEvaluator(well, well)
    joint = joint_evaluator(joint_t)
    pre_p = spins.spin_moments(prod, 0.3)
    pre_j = spins.spin_moments(joint, 0.3)
    assert np.allclose(pre_p.means, pre_j.means, atol=1e-8)
    assert np.allclose(pre_p.covariance, pre_j.covariance, atol=1e-8)

    def post_p(op):
        return prod(spins.beam_splitter_map(op, math.pi / 4, 0.1))

    def post_j(op):
        return joint(spins.beam_splitter_map(op, math.pi / 4, 0.1))

    mp = spins.spin_moments(post_p, 0.3)
    mj = spins.spin_moments(post_j, 0.3)
    assert np.allclose(mp.means, mj.means, atol=1e-8)
    assert np.allclose(mp.covariance, mj.covariance, atol=1e-8)


def test_product_evaluator_matches_joint_evaluator_for_distinct_wells():
    """Two different well states against the explicit 4-mode product state
    |psi_A> x |psi_B>, before and after the Heisenberg beam splitter."""
    chi = rb_interaction_matrix()
    well_a = WellEvolution.prepare(0.7, 0.4j, chi, cutoff=7).at_time(0.8)
    well_b = WellEvolution.prepare(0.3 - 0.2j, 0.6, chi, cutoff=7).at_time(1.9)
    joint_t = StateVector(
        FockBasis((7, 7, 7, 7)), np.kron(well_a.amplitudes, well_b.amplitudes)
    )
    prod = spins.ProductEvaluator(well_a, well_b)
    joint = joint_evaluator(joint_t)
    for mixing in (0.0, math.pi / 4):
        def post_p(op):
            return prod(spins.beam_splitter_map(op, mixing, 0.1))

        def post_j(op):
            return joint(spins.beam_splitter_map(op, mixing, 0.1))

        mp = spins.spin_moments(post_p, 0.3)
        mj = spins.spin_moments(post_j, 0.3)
        assert np.allclose(mp.means, mj.means, atol=1e-8)
        assert np.allclose(mp.covariance, mj.covariance, atol=1e-8)
    # the wells really differ, so a swapped well would be caught
    moments = spins.spin_moments(prod, 0.3)
    assert abs(moments.mean(0, 0) - moments.mean(1, 0)) > 0.05


def test_product_evaluator_shares_one_cache_for_equal_wells(monkeypatch):
    """ProductEvaluator(s, s) computes each well expectation once; a
    distinct but equal state for well B computes every one twice."""
    well, _ = _small_alpha_setup()
    twin = StateVector(well.basis, well.amplitudes.copy())
    calls = []
    original = np.vdot

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(np, "vdot", counting)
    shared = spins.spin_moments(spins.ProductEvaluator(well, well), 0.3)
    shared_calls = len(calls)
    calls.clear()
    separate = spins.spin_moments(spins.ProductEvaluator(well, twin), 0.3)
    assert shared_calls > 0
    assert len(calls) == 2 * shared_calls
    assert np.array_equal(shared.means, separate.means)
    assert np.array_equal(shared.covariance, separate.covariance)


def test_heisenberg_map_equals_schroedinger_splitter():
    """Operator substitution after the state equals evolving the state
    through the beam-splitter unitary."""
    well, joint_t = _small_alpha_setup()
    theta, phi = 0.6, 0.25
    joint = joint_evaluator(joint_t)
    rotated = beam_splitter(joint_t, theta, phase=phi)
    joint_rot = joint_evaluator(rotated)
    for op in (
        spins.op_elementary(0, 0, False),
        spins.op_mul(spins.op_elementary(0, 1, True), spins.op_elementary(1, 1, False)),
    ):
        heis = joint(spins.beam_splitter_map(op, theta, phi))
        schro = joint_rot(op)
        # cutoff-7 basis: the unitary splitter and the operator map differ
        # only by the truncated Poisson tail
        assert heis == pytest.approx(schro, abs=1e-4)


def test_optimal_theta_minimizes_variance():
    well, _ = _small_alpha_setup()
    ev = spins.ProductEvaluator(well, well)
    moments = spins.spin_moments(ev, 0.15)
    theta, iso = spins.optimal_theta(moments, well=0)
    assert not iso
    v0 = spins.spin_variance(moments, theta, 0)
    # stationary minimum: nearby angles are not better
    for d in (-0.01, 0.01, 0.3, -0.3):
        assert spins.spin_variance(moments, theta + d, 0) >= v0 - 1e-12


def test_optimal_theta_isotropic_coherent_state():
    basis = FockBasis((18, 18))
    state = coherent_state([0.8, 0.8], basis)
    ev = spins.ProductEvaluator(state, state)
    moments = spins.spin_moments(ev, 0.0)
    _, iso = spins.optimal_theta(moments, well=0)
    assert iso  # coherent spin state has an isotropic variance circle


def test_coherent_state_shot_noise_reference():
    """An unsqueezed coherent spin state sits exactly at shot noise:
    Delta^2 J(theta) = |<Jy>| / 2 for every theta."""
    basis = FockBasis((14, 14))
    state = coherent_state([1.0, 1.0], basis)
    ev = spins.ProductEvaluator(state, state)
    # delta_theta = pi/2 points the mean spin along Jy
    moments = spins.spin_moments(ev, math.pi / 2)
    n0 = 0.5 * abs(moments.mean(0, 2))
    for theta in (0.0, 0.4, 1.2):
        assert spins.spin_variance(moments, theta, 0) == pytest.approx(n0, abs=1e-8)


def test_cross_variances_of_independent_wells_add():
    well, _ = _small_alpha_setup()
    ev = spins.ProductEvaluator(well, well)
    moments = spins.spin_moments(ev, 0.2)
    vm, vp = spins.cross_variances(moments, 0.5)
    va = spins.spin_variance(moments, 0.5, 0)
    vb = spins.spin_variance(moments, 0.5, 1)
    assert vm == pytest.approx(va + vb, abs=1e-10)


def test_poisson_cutoff_covers_mass():
    from scipy.stats import poisson

    for nbar in (0.5, 4.0, 50.0):
        cut = poisson_cutoff(nbar)
        assert poisson.sf(cut, nbar) < 1e-11
    assert poisson_cutoff(0.0) == 1


def test_poisson_cutoff_matches_scipy_quantile():
    from scipy.stats import poisson

    grid = np.linspace(0.001, 3000.0, 30001)
    expected = poisson.isf(1e-12, grid).astype(int) + 5
    assert np.array_equal([poisson_cutoff(nbar) for nbar in grid], expected)
    assert poisson_cutoff(0.0) == 1


def test_rb_interaction_matrix_values():
    chi = rb_interaction_matrix()
    assert chi[0, 0] == 1.0
    assert chi[0, 1] == chi[1, 0] == pytest.approx(80.8 / 100.4)
    assert chi[1, 1] == pytest.approx(95.5 / 100.4)


def test_doublewell_scan_small_n_squeezes():
    """N=20 run: squeezing develops and entanglement criteria drop below 1
    somewhere in the scan; tau=0+ behaves like a coherent state."""
    points = doublewell_scan(20.0, [0.01, 10.0, 24.0])
    early = points[0]
    assert early.s_db_theta == pytest.approx(0.0, abs=0.05)
    assert early.e_product == pytest.approx(1.0, abs=0.05)
    best = min(p.s_db_theta for p in points)
    assert best < -3.0
    assert min(p.e_product for p in points) < 1.0


def test_doublewell_scan_time_normalization():
    """tau = chi11 * N * t: scaling chi11 leaves the tau-parameterized
    physics invariant."""
    chi = rb_interaction_matrix()
    p1 = doublewell_scan(20.0, [8.0], chi=chi)[0]
    p2 = doublewell_scan(20.0, [8.0], chi=2.0 * chi)[0]
    # doubling every chi_ij halves t but keeps chi_ij * t fixed
    assert p1.s_db_theta == pytest.approx(p2.s_db_theta, abs=1e-8)
    assert p1.e_product == pytest.approx(p2.e_product, abs=1e-8)


def test_doublewell_scan_builds_each_ladder_operator_once(monkeypatch):
    """One build per mode of the one well basis, shared by every tau."""
    from qphase import fock

    built = []
    original = fock.annihilation_operator

    def counting(basis, mode):
        built.append(mode)
        return original(basis, mode)

    monkeypatch.setattr(fock, "annihilation_operator", counting)
    doublewell_scan(20.0, [1, 5, 10])
    assert sorted(built) == [0, 1]
