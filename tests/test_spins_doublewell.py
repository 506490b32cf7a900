import cmath
import math
import time

import numpy as np
import pytest

from qphase import spins
from qphase.doublewell import (
    WellEvolution,
    doublewell_scan,
    fock_check,
    moment_tensors,
    poisson_cutoff,
    rb_interaction_matrix,
)
from qphase.fock import FockBasis, StateVector, coherent_state

from oracles import beam_splitter, joint_moments


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

    # the wells do not interact: a block-diagonal chi over the four modes
    diag = well_hamiltonian_diagonal(np.kron(np.eye(2), chi), joint_basis)
    amps = np.exp(-1j * diag * t) * joint.amplitudes
    joint_t = StateVector(joint_basis, amps)
    return well, joint_t


def _moments(state_a, state_b, delta_theta, mixing_angle=None):
    """Spin moments of |psi_A> x |psi_B>, after the splitter if an angle is given."""
    matrices = spins.spin_matrices(delta_theta)
    if mixing_angle is not None:
        matrices = spins.beam_splitter_map(matrices, mixing_angle)
    return spins.spin_moments(matrices, spins.ProductEvaluator(state_a, state_b)())


def _assert_same_moments(tensors, reference, delta_theta, mixing_angle):
    matrices = spins.spin_matrices(delta_theta)
    for mats in (matrices, spins.beam_splitter_map(matrices, mixing_angle, 0.1)):
        got = spins.spin_moments(mats, tensors)
        want = spins.spin_moments(mats, reference)
        assert np.allclose(got.means, want.means, atol=1e-8)
        assert np.allclose(got.covariance, want.covariance, atol=1e-8)


def test_product_evaluator_matches_joint_moments():
    """Cross-validation: the factorized moment tensors equal the explicit
    4-mode ones, and so do the spin moments before and after the
    Heisenberg beam splitter."""
    well, joint_t = _small_alpha_setup()
    tensors = spins.ProductEvaluator(well, well)()
    reference = joint_moments(joint_t)
    for got, want in zip(tensors, reference):
        assert np.allclose(got, want, atol=1e-8)
    _assert_same_moments(tensors, reference, 0.3, math.pi / 4)


def test_product_evaluator_matches_joint_moments_for_distinct_wells():
    """Two different well states against the explicit 4-mode product state
    |psi_A> x |psi_B>, before and after the Heisenberg beam splitter."""
    chi = rb_interaction_matrix()
    well_a = WellEvolution.prepare(0.7, 0.4j, chi, cutoff=7).at_time(0.8)
    well_b = WellEvolution.prepare(0.3 - 0.2j, 0.6, chi, cutoff=7).at_time(1.9)
    joint_t = StateVector(
        FockBasis((7, 7, 7, 7)), np.kron(well_a.amplitudes, well_b.amplitudes)
    )
    tensors = spins.ProductEvaluator(well_a, well_b)()
    reference = joint_moments(joint_t)
    for got, want in zip(tensors, reference):
        assert np.allclose(got, want, atol=1e-8)
    for mixing in (0.0, math.pi / 4):
        _assert_same_moments(tensors, reference, 0.3, mixing)
    # the wells really differ, so a swapped well would be caught
    moments = _moments(well_a, well_b, 0.3)
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
    shared = spins.ProductEvaluator(well, well)()
    shared_calls = len(calls)
    calls.clear()
    separate = spins.ProductEvaluator(well, twin)()
    assert 0 < shared_calls <= 81
    assert len(calls) == 2 * shared_calls
    for got, want in zip(shared, separate):
        assert np.array_equal(got, want)


def test_kerr_moment_tensors_match_the_product_evaluator():
    """G1 and G2 of the double well at N = 200 from the closed form the
    scan uses, against the Fock evaluator."""
    atoms, chi = 200.0, rb_interaction_matrix()
    alpha = math.sqrt(atoms / 4.0)
    evo = WellEvolution.prepare(alpha, alpha, chi)
    for tau in (1.0, 7.0, 20.0, 80.0):
        t = tau / (chi[0, 0] * atoms)
        state = evo.at_time(t)
        ref_g1, ref_g2 = spins.ProductEvaluator(state, state)()
        g1, g2 = moment_tensors(alpha, chi, t)
        assert np.abs(g1 - ref_g1).max() <= 1e-10 * np.abs(ref_g1).max()
        assert np.abs(g2 - ref_g2).max() <= 1e-10 * np.abs(ref_g2).max()


@pytest.mark.parametrize("tau", [0.5, 1.0, 24.0, 100.0])
def test_fock_check_agrees_with_the_closed_form(tau):
    check = fock_check(tau, rb_interaction_matrix())
    assert check.atoms == 20 and check.tau == tau
    assert 0 <= check.max_relative_gap <= 1e-12
    assert abs(check.truncation_loss) < 1e-10


def test_heisenberg_map_equals_schroedinger_splitter():
    """Mapping the coefficient matrices equals evolving the state through
    the beam-splitter unitary, for every bilinear c_i^dag c_j."""
    _, joint_t = _small_alpha_setup()
    theta, phi = 0.6, 0.25
    g1_before, _ = joint_moments(joint_t)
    g1_after, _ = joint_moments(beam_splitter(joint_t, theta, phase=phi))
    units = np.eye(16).reshape(16, 4, 4)  # c_i^dag c_j, one per (i, j)
    mapped = spins.beam_splitter_map(units, theta, phi)
    heis = mapped.reshape(16, 16) @ g1_before.reshape(16)
    # cutoff-7 basis: the unitary splitter and the matrix map differ
    # only by the truncated Poisson tail
    assert np.allclose(heis, g1_after.reshape(16), atol=1e-4)
    # the splitter really mixes the wells: <a2^dag b2> moves
    assert abs(g1_after[1, 3] - g1_before[1, 3]) > 0.05


def test_optimal_theta_minimizes_variance():
    well, _ = _small_alpha_setup()
    moments = _moments(well, well, 0.15)
    theta, iso = spins.optimal_theta(moments, well=0)
    assert not iso
    v0 = spins.spin_variance(moments, theta, 0)
    # stationary minimum: nearby angles are not better
    for d in (-0.01, 0.01, 0.3, -0.3):
        assert spins.spin_variance(moments, theta + d, 0) >= v0 - 1e-12


def test_optimal_theta_isotropic_coherent_state():
    basis = FockBasis((18, 18))
    state = coherent_state([0.8, 0.8], basis)
    moments = _moments(state, state, 0.0)
    _, iso = spins.optimal_theta(moments, well=0)
    assert iso  # coherent spin state has an isotropic variance circle


def test_coherent_state_shot_noise_reference():
    """An unsqueezed coherent spin state sits exactly at shot noise:
    Delta^2 J(theta) = |<Jy>| / 2 for every theta."""
    basis = FockBasis((14, 14))
    state = coherent_state([1.0, 1.0], basis)
    # delta_theta = pi/2 points the mean spin along Jy
    moments = _moments(state, state, math.pi / 2)
    n0 = 0.5 * abs(moments.mean(0, 2))
    for theta in (0.0, 0.4, 1.2):
        assert spins.spin_variance(moments, theta, 0) == pytest.approx(n0, abs=1e-8)


def test_cross_variances_of_independent_wells_add():
    well, _ = _small_alpha_setup()
    moments = _moments(well, well, 0.2)
    vm, vp = spins.cross_variances(moments, 0.5)
    va = spins.spin_variance(moments, 0.5, 0)
    vb = spins.spin_variance(moments, 0.5, 1)
    assert vm == pytest.approx(va + vb, abs=1e-10)


def test_cross_variances_take_an_array_of_angles():
    """An array of angles gives the same variances as one call per angle."""
    well, _ = _small_alpha_setup()
    moments = _moments(well, well, 0.2, mixing_angle=math.pi / 4)
    thetas = np.linspace(-1.5, 1.5, 7)
    vm, vp = spins.cross_variances(moments, thetas)
    assert vm.shape == vp.shape == thetas.shape
    for k, th in enumerate(thetas):
        assert (vm[k], vp[k]) == pytest.approx(spins.cross_variances(moments, th), abs=1e-12)


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


def test_poisson_cutoff_matches_scipy_on_random_means():
    """Off the even grid too: uniform means up to 3000 and log-uniform ones
    from 1e-6 to 1e4, drawn from a seed fixed before this test first ran."""
    from scipy.stats import poisson

    rng = np.random.default_rng(2026)
    nbar = np.concatenate([3000.0 * (1.0 - rng.random(5000)), 10.0 ** rng.uniform(-6, 4, 5000)])
    expected = poisson.isf(1e-12, nbar).astype(int) + 5
    assert np.array_equal([poisson_cutoff(x) for x in nbar], expected)


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


def test_only_the_fock_check_builds_ladder_operators(monkeypatch):
    """The scan builds no Fock operator at its atom number; the check
    builds one per mode of its one well basis."""
    from qphase import fock

    built = []
    original = fock.annihilation_operator

    def counting(basis, mode):
        built.append(mode)
        return original(basis, mode)

    monkeypatch.setattr(fock, "annihilation_operator", counting)
    doublewell_scan(200.0, [1, 5, 10])
    assert built == []
    fock_check(1.0)
    assert sorted(built) == [0, 1]


def test_doublewell_scan_at_a_million_atoms():
    """The closed form makes the scan's cost independent of N: the shipped
    tau grid at N = 1e6, where a Fock basis would hold ~6e10 states."""
    taus = [1, 5, 10, 20, 30, 40, 50, 60, 80, 100]
    doublewell_scan(1e6, taus)
    start = time.perf_counter()
    points = doublewell_scan(1e6, taus)
    elapsed = time.perf_counter() - start
    assert all(math.isfinite(v) for p in points for v in vars(p).values())
    assert min(p.s_db_theta for p in points) < -3.0
    assert elapsed < 0.1
