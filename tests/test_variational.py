import math

import numpy as np
import pytest

from oracles import kerr_terms, polynomial_symbol, polynomial_symbol_grad, variational_system_reference
from qphase.fock import (
    FockBasis,
    annihilation_operator,
    coherent_state,
    kerr_oracle,
    well_hamiltonian_diagonal,
)
from qphase.variational import (
    VariationalState,
    energy,
    expectation,
    kerr_hamiltonian,
    overlap_matrix,
    propagate,
    ring_initial_state,
    state_norm,
    tikhonov_solve,
    variational_system,
)


def _fock_reference(state: VariationalState, cutoff=25):
    """Dense Fock vector of the superposition (single mode)."""
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])
    psi = np.zeros(cutoff + 1, dtype=complex)
    for a0, amp in zip(state.alpha0, state.amps[:, 0]):
        # Bargmann ket: exp(alpha0) sum_n alpha^n / sqrt(n!) |n>
        with np.errstate(divide="ignore"):
            psi += np.exp(a0) * amp**n / np.exp(0.5 * log_fact)
    return psi


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    st = VariationalState(
        alpha0=rng.standard_normal(3) + 1j * rng.standard_normal(3),
        amps=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
    )
    back = VariationalState.unpack(st.pack(), 3, 2)
    assert np.array_equal(back.alpha0, st.alpha0)
    assert np.array_equal(back.amps, st.amps)


def test_ring_initial_state_is_normalized_coherent():
    alpha = 1.4 + 0.2j
    state = ring_initial_state([alpha], members=12, radius=0.05)
    assert state_norm(state) == pytest.approx(1.0, abs=0.01)
    assert expectation(state, (), (0,)) == pytest.approx(alpha, abs=0.01)
    # against an explicit Fock construction
    psi = _fock_reference(state)
    basis = FockBasis((25,))
    ref = coherent_state([alpha], basis).amplitudes
    overlap = abs(np.vdot(ref, psi)) / np.linalg.norm(psi)
    assert overlap == pytest.approx(1.0, abs=0.01)


def test_overlap_matrix_against_fock():
    rng = np.random.default_rng(1)
    state = VariationalState(
        alpha0=-0.5 + 0.1 * rng.standard_normal(3) + 0.1j * rng.standard_normal(3),
        amps=(0.8 * rng.standard_normal((3, 1)) + 0.8j * rng.standard_normal((3, 1))),
    )
    rho = overlap_matrix(state)
    assert state_norm(state) == pytest.approx(rho.sum().real)
    psi = _fock_reference(state)
    assert np.vdot(psi, psi).real == pytest.approx(rho.sum().real, rel=1e-10)


def test_energy_and_expectation_against_fock():
    rng = np.random.default_rng(2)
    state = VariationalState(
        alpha0=-1.0 + 0.2j * rng.standard_normal(2),
        amps=(1.0 + 0.3 * rng.standard_normal((2, 1)) + 0.3j * rng.standard_normal((2, 1))),
    )
    chi = 0.7
    ham = kerr_hamiltonian(chi, modes=1, omega=[0.4])
    psi = _fock_reference(state, cutoff=30)
    basis = FockBasis((30,))
    a = annihilation_operator(basis, 0).toarray()
    n_op = a.conj().T @ a
    h_mat = 0.4 * n_op + 0.5 * chi * (a.conj().T @ a.conj().T @ a @ a)
    norm = np.vdot(psi, psi).real
    e_ref = (np.vdot(psi, h_mat @ psi) / norm).real
    assert energy(state, ham) == pytest.approx(e_ref, rel=1e-10)
    a_ref = np.vdot(psi, a @ psi) / norm
    assert expectation(state, (), (0,)) == pytest.approx(a_ref, rel=1e-10)


def test_kerr_hamiltonian_symbol_and_grad():
    ham = kerr_hamiltonian(1.0)
    bra = np.array([[2.0 + 0j], [1.0 + 1j]])
    ket = np.array([[0.5 + 0j], [1.0 - 1j]])
    stack = ham.symbols(bra, ket)
    assert stack.shape == (2, 2, 2)
    assert stack[0, 0, 1] == pytest.approx(0.5 * (2.0**2) * (1.0 - 1j) ** 2)
    assert stack[0, 1, 1] == pytest.approx(0.5 * 2 * 2.0 * (1.0 - 1j) ** 2)
    assert np.array_equal(ham.symbols(bra, ket), stack)


def test_mode_counts_must_agree():
    """expectation rejects a mode the state lacks; a Hamiltonian takes one
    omega per mode and only states with its number of modes."""
    state = ring_initial_state([1.0], members=3)
    with pytest.raises(ValueError, match="out of range"):
        expectation(state, (), (1,))
    with pytest.raises(ValueError, match="out of range"):
        expectation(state, (-1,), ())
    with pytest.raises(ValueError, match="one value per mode"):
        kerr_hamiltonian(1.0, modes=2, omega=[0.3])
    with pytest.raises(ValueError, match="acts on 2 modes"):
        variational_system(state, kerr_hamiltonian(1.0, modes=2))


def test_kerr_hamiltonian_is_read_only():
    ham = kerr_hamiltonian(1.0, modes=2, omega=[0.3, -1.1])
    with pytest.raises(ValueError, match="read-only"):
        ham.omega[0] = 5.0


def _assert_close(got, ref):
    """Equal to 1e-13 of the largest reference entry: the closed form
    re-associates the term-by-term products."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("modes, omega", [(1, None), (1, [0.3]), (2, None), (2, [0.3, -1.1])])
def test_kerr_symbols_match_term_loop(modes, omega):
    rng = np.random.default_rng(21)
    amps = rng.standard_normal((16, modes)) + 1j * rng.standard_normal((16, modes))
    bra, ket = amps.conj(), amps
    terms = kerr_terms(0.7, modes, omega)
    stack = kerr_hamiltonian(0.7, modes, omega).symbols(bra, ket)
    _assert_close(stack[:, 0], polynomial_symbol(terms, bra, ket))
    for k in range(modes):
        _assert_close(stack[:, k + 1], polynomial_symbol_grad(terms, bra, ket, k))


@pytest.mark.parametrize("members", [1, 16])
@pytest.mark.parametrize(
    "modes, chi, omega, seed",  # seed: the offset of the case's rng seed
    [(1, 0.7, [0.3], 2), (2, 0.7, [0.3, -1.1], 4), (1, 0.0, None, 0), (2, 0.0, None, 0)],
    ids=["kerr-1", "kerr-2", "empty-1", "empty-2"],
)
@pytest.mark.parametrize("views", [False, True], ids=["arrays", "views"])
def test_variational_system_matches_reference(members, modes, chi, omega, seed, views):
    rng = np.random.default_rng(members + 10 * modes + seed)
    state = VariationalState(
        alpha0=-1.0 + 0.3 * (rng.standard_normal(members) + 1j * rng.standard_normal(members)),
        amps=rng.standard_normal((members, modes)) + 1j * rng.standard_normal((members, modes)),
    )
    if views:  # strided views of one packed vector, as propagate passes them
        grid = state.pack().reshape(members, modes + 1)
        state = VariationalState(alpha0=grid[:, 0], amps=grid[:, 1:])
    v, h_vec = variational_system(state, kerr_hamiltonian(chi, modes, omega))
    v_ref, h_ref = variational_system_reference(state, kerr_terms(chi, modes, omega))
    _assert_close(v, v_ref)
    _assert_close(h_vec, h_ref)


def test_gram_matrix_single_member_example():
    """N=1: V = [[1, conj(alpha)], [alpha, 1 + |alpha|^2]] rho."""
    alpha = 0.7 + 0.3j
    state = VariationalState(
        alpha0=np.array([-0.5 * abs(alpha) ** 2], dtype=complex),
        amps=np.array([[alpha]]),
    )
    v, _ = variational_system(state, kerr_hamiltonian(1.0))
    rho = overlap_matrix(state)[0, 0]
    expected = np.array(
        [[1.0, np.conj(alpha)], [alpha, 1.0 + abs(alpha) ** 2]]
    ) * rho
    assert np.allclose(v, expected, atol=1e-12)


def test_gram_matrix_is_hermitian():
    rng = np.random.default_rng(7)
    state = VariationalState(
        alpha0=0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
        amps=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
    )
    v, _ = variational_system(state, kerr_hamiltonian(0.5, modes=2))
    assert np.allclose(v, v.conj().T, atol=1e-10)


def test_variational_velocity_matches_schroedinger():
    """Solving i V dX/dt = H and mapping to Fock space reproduces
    -i H |psi> exactly (the manifold is locally complete here)."""
    alpha = 0.9
    state = ring_initial_state([alpha], members=6, radius=0.3)
    ham = kerr_hamiltonian(0.8, modes=1)
    v, h_vec = variational_system(state, ham)
    xdot = np.linalg.solve(v, -1j * h_vec)
    ds = VariationalState.unpack(xdot, 6, 1)
    # central-difference the Fock embedding along xdot
    eps = 1e-5

    def shifted(sgn):
        return VariationalState(
            alpha0=state.alpha0 + sgn * eps * ds.alpha0,
            amps=state.amps + sgn * eps * ds.amps,
        )

    dpsi_fd = (_fock_reference(shifted(+1), 30) - _fock_reference(shifted(-1), 30)) / (
        2 * eps
    )
    basis = FockBasis((30,))
    h_diag = well_hamiltonian_diagonal(np.array([[0.8]]), basis)
    dpsi_exact = -1j * h_diag * _fock_reference(state, 30)
    assert np.allclose(dpsi_fd, dpsi_exact, atol=1e-4)


def test_tikhonov_solve_converges_to_midpoint_equation():
    rng = np.random.default_rng(9)
    dim = 6
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = m @ m.conj().T + np.eye(dim)  # well conditioned
    h_vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    dt = 0.01
    dx = np.zeros(dim, dtype=complex)
    for _ in range(30):
        dx = tikhonov_solve(v, dx, h_vec, dt, 1j * 1e-12 * np.eye(dim))
    # fixed point: V dx = -i dt h / 2
    assert np.allclose(v @ dx, -0.5j * dt * h_vec, atol=1e-10)


def test_propagate_zero_hamiltonian_is_identity():
    state = ring_initial_state([1.0], members=4, radius=0.1)
    ham = kerr_hamiltonian(0.0, modes=1)
    _, states = propagate(state, ham, dt=0.01, n_steps=20, record_every=20)
    assert np.allclose(states[-1].amps, state.amps, atol=1e-12)
    assert np.allclose(states[-1].alpha0, state.alpha0, atol=1e-12)


def test_propagate_conserves_norm_and_energy():
    state = ring_initial_state([math.sqrt(2.0)], members=10, radius=0.1)
    ham = kerr_hamiltonian(1.0, modes=1)
    dt = 2 * math.pi / 2000
    _, states = propagate(state, ham, dt, n_steps=400, lam=1e-4, record_every=400)
    final = states[-1]
    assert state_norm(final) == pytest.approx(state_norm(state), rel=0.02)
    assert energy(final, ham) == pytest.approx(energy(state, ham), rel=0.02)


def test_cat_state_emerges_at_half_revival():
    """At t = pi the Kerr evolution of a coherent state is a two-component
    cat; the ring ansatz reproduces its vanishing <a> and preserved <n>."""
    alpha = math.sqrt(3.0)
    state = ring_initial_state([alpha], members=16, radius=0.1)
    ham = kerr_hamiltonian(1.0, modes=1)
    dt = 2 * math.pi / 2000
    _, states = propagate(state, ham, dt, n_steps=1000, lam=1e-4, record_every=1000)
    cat = states[-1]
    oracle = kerr_oracle([alpha], [[1.0]], math.pi)
    assert abs(expectation(cat, (), (0,)) - oracle["a"][0]) < 0.05
    assert abs(oracle["a"][0]) < 0.01  # the mean really collapses
    n_val = expectation(cat, (0,), (0,)).real
    assert n_val == pytest.approx(3.0, abs=0.1)
