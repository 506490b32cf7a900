import math
from itertools import product

import numpy as np
import pytest

from qphase.doublewell import WellEvolution
from qphase.fock import (
    CapacityError,
    FockBasis,
    annihilation_operator,
    coherent_state,
    kerr_moment,
    kerr_oracle,
    well_hamiltonian_diagonal,
)

from oracles import beam_splitter, loop_annihilation


def _expect(state, op) -> complex:
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def test_basis_enumeration_and_sector():
    basis = FockBasis((2, 2))
    assert basis.dimension == 9
    assert basis.occupations[5].tolist() == [1, 2]  # itertools.product order
    with pytest.raises(CapacityError):
        FockBasis((1,) * 7)


def test_coherent_state_poisson_statistics():
    alpha = 1.3 + 0.4j
    basis = FockBasis((25,))
    state = coherent_state([alpha], basis)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)
    assert state.truncation_loss < 1e-10
    probs = np.abs(state.amplitudes) ** 2
    nbar = abs(alpha) ** 2
    n = np.arange(26)
    poisson = np.exp(
        -nbar + n * math.log(nbar) - np.array([math.lgamma(k + 1.0) for k in n])
    )
    assert np.allclose(probs, poisson, atol=1e-12)
    # annihilation eigenstate
    a = annihilation_operator(basis, 0)
    assert _expect(state, a) == pytest.approx(alpha, abs=1e-10)


def test_coherent_state_truncation_warning():
    basis = FockBasis((3,))
    with pytest.warns(UserWarning, match="truncation"):
        coherent_state([2.0], basis)


def test_annihilation_commutator():
    basis = FockBasis((8,))
    a = annihilation_operator(basis, 0).toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical commutator away from the truncation edge
    assert np.allclose(np.diag(comm)[:-1], 1.0)


@pytest.mark.parametrize("cutoffs", [(6,), (3, 5), (2, 0, 4), (1, 3, 2, 4)])
def test_annihilation_operator_matches_loop_build(cutoffs):
    """The index-shift ladder and its adjoint equal the CSR matrix built one
    basis state at a time, as a matrix and applied to a random complex
    vector and to a 2-D array whose first axis is the basis index."""
    basis = FockBasis(cutoffs)
    rng = np.random.default_rng(len(cutoffs))
    shape = (basis.dimension, 3)
    vec = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for mode in range(basis.mode_count):
        got = annihilation_operator(basis, mode)
        ref = loop_annihilation(basis, mode)
        for op, ref_op in ((got, ref), (got.H, ref.conj().T)):
            dense = op.toarray()
            assert dense.dtype == complex and np.array_equal(dense, ref_op.toarray())
            for psi in (vec, block):
                out = op @ psi
                assert out.shape == psi.shape and np.array_equal(out, ref_op @ psi)


@pytest.mark.parametrize("cutoffs", [(6,), (3, 5), (2, 0, 4), (1, 3, 2, 4)])
def test_basis_occupations_in_product_order(cutoffs):
    """The np.indices build gives the itertools.product enumeration."""
    occupations = FockBasis(cutoffs).occupations
    expected = np.array(list(product(*(range(c + 1) for c in cutoffs))), dtype=np.int64)
    assert occupations.dtype == np.int64 and np.array_equal(occupations, expected)


def test_annihilation_operator_rejects_sector_and_bad_mode():
    for mode in (-1, 2):
        with pytest.raises(IndexError):
            annihilation_operator(FockBasis((3, 3)), mode)


def test_well_hamiltonian_diagonal_values():
    basis = FockBasis((3, 3))
    chi = np.array([[1.0, 0.5], [0.5, 2.0]])
    diag = well_hamiltonian_diagonal(chi, basis)
    for idx, (n1, n2) in enumerate(basis.occupations):
        expected = 0.5 * (n1 * (n1 - 1) + 2.0 * n2 * (n2 - 1)) + 0.5 * n1 * n2
        assert diag[idx] == pytest.approx(expected)


def test_evolve_matches_kerr_oracle_single_well():
    """Exact diagonal Kerr evolution of a well against the closed-form
    coherent solution."""
    alpha = [1.1, 0.8]
    chi = np.array([[0.7, 0.2], [0.2, 0.5]])
    evo = WellEvolution.prepare(*alpha, chi, cutoff=14)
    basis = evo.basis
    for t in (0.3, 1.7):
        evolved = evo.at_time(t)
        oracle = kerr_oracle(alpha, chi, t)
        for mode in range(2):
            a = annihilation_operator(basis, mode)
            assert _expect(evolved, a) == pytest.approx(oracle["a"][mode], abs=1e-8)
        for i in range(2):
            for j in range(2):
                ai = annihilation_operator(basis, i)
                aj = annihilation_operator(basis, j)
                val = _expect(evolved, ai.H.toarray() @ aj.toarray())
                unit = np.eye(2, dtype=int)
                assert val == pytest.approx(kerr_moment(alpha, chi, t, unit[i], unit[j]), abs=1e-8)


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_kerr_moment_stack_equals_row_by_row_calls(modes):
    """A stack of count rows gives, bit for bit, what one call per row gives."""
    rng = np.random.default_rng(modes)
    alphas = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    chi = rng.normal(size=(modes, modes))
    chi = chi + chi.T
    creators = rng.integers(0, 4, size=(3, 5, modes))
    annihilators = rng.integers(0, 4, size=(3, 5, modes))
    stack = kerr_moment(alphas, chi, 0.9, creators, annihilators)
    assert stack.shape == (3, 5)
    rows = np.array([
        kerr_moment(alphas, chi, 0.9, creators[idx], annihilators[idx]) for idx in np.ndindex(3, 5)
    ]).reshape(3, 5)
    assert stack.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "alphas, chi, t, expected",
    [
        ([1.5 + 0.5j], [[0.3]], 0.7, [("0x1.778c594dc2310p+0", "-0x1.2f91f16b25710p-2")]),
        (
            [1.2 + 0.3j, 0.8 - 0.6j], [[0.5, 0.2], [0.2, 0.4]], 0.7,
            [("0x1.050c3889f600cp+0", "-0x1.d14d9437fe144p-2"),
             ("0x1.9b0501559fa71p-2", "-0x1.b7727cc46c83cp-1")],
        ),
    ],
    ids=["one-mode", "cross-kerr"],
)
def test_kerr_oracle_keeps_its_bits(alphas, chi, t, expected):
    """The oracle means, to the last bit, as the one-row-at-a-time closed
    form gave them.  numpy's array complex multiply fuses a multiply and
    an add on CPUs with FMA, and a batched form that used it for the last
    product moved the last bit of all three of these values."""
    got = kerr_oracle(alphas, chi, t)["a"]
    assert [(z.real.hex(), z.imag.hex()) for z in got] == expected


def test_kerr_revival():
    """H = (1/2) adag^2 a^2 with chi = 1 revives the coherent state at 2 pi."""
    basis = FockBasis((16,))
    alpha = [1.2]
    state = coherent_state(alpha, basis)
    evo = WellEvolution(basis, state, well_hamiltonian_diagonal(np.array([[1.0]]), basis))
    revived = evo.at_time(2.0 * math.pi)
    fidelity = abs(np.vdot(revived.amplitudes, state.amplitudes)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-10)
    # and the oracle mean collapses then revives too
    assert kerr_oracle(alpha, [[1.0]], 2 * math.pi)["a"][0] == pytest.approx(
        alpha[0], abs=1e-12
    )


def test_beam_splitter_is_unitary_and_swaps_at_pi_over_2():
    basis = FockBasis((6, 6, 6, 6))
    state = coherent_state([0.8, 0.0, 0.0, 0.0], basis)
    mixed = beam_splitter(state, math.pi / 4)
    assert np.linalg.norm(mixed.amplitudes) == pytest.approx(1.0, abs=1e-10)
    # 50:50 split of a coherent state stays coherent: <n_a1> = <n_b1> = |alpha|^2/2
    a1, b1 = loop_annihilation(basis, 0), loop_annihilation(basis, 2)
    n_a1, n_b1 = a1.conj().T @ a1, b1.conj().T @ b1
    assert _expect(mixed, n_a1).real == pytest.approx(0.32, abs=1e-4)
    assert _expect(mixed, n_b1).real == pytest.approx(0.32, abs=1e-4)
    # full swap at theta = pi/2
    swapped = beam_splitter(state, math.pi / 2)
    assert _expect(swapped, n_a1).real == pytest.approx(0.0, abs=1e-4)
    assert _expect(swapped, n_b1).real == pytest.approx(0.64, abs=1e-4)


def test_number_phase_uncertainty_slack():
    """Coherent states satisfy the number-quadrature uncertainty relation
    with the expected slack Delta n Delta X >= |<a>|/2."""
    basis = FockBasis((22,))
    alpha = 1.5
    state = coherent_state([alpha], basis)
    a = annihilation_operator(basis, 0).toarray()
    n_op = a.conj().T @ a
    x_op = 0.5 * (a + a.conj().T)
    var_n = _expect(state, n_op @ n_op).real - _expect(state, n_op).real ** 2
    var_x = _expect(state, x_op @ x_op).real - _expect(state, x_op).real ** 2
    bound = 0.25 * abs(_expect(state, a)) ** 2
    assert var_n * var_x >= bound - 1e-10
    assert var_n * var_x == pytest.approx(alpha**2 * 0.25, abs=1e-8)
