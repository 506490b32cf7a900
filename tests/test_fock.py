import math

import numpy as np
import pytest
import scipy.sparse as sp

from qphase.fock import (
    CapacityError,
    FockBasis,
    annihilation_operator,
    beam_splitter,
    build_hamiltonian,
    coherent_state,
    evolve,
    kerr_oracle,
    transfer_operator,
    well_hamiltonian_diagonal,
)


def test_basis_enumeration_and_sector():
    basis = FockBasis((2, 2))
    assert basis.dimension == 9
    assert basis.state_index((1, 2)) == basis.index[(1, 2)]
    sector = FockBasis((3, 3), total_number=3)
    assert sector.dimension == 4
    assert all(occ.sum() == 3 for occ in sector.occupations)
    with pytest.raises(CapacityError):
        FockBasis((1,) * 7)
    with pytest.raises(ValueError):
        FockBasis((2, 2), total_number=10)


def test_coherent_state_poisson_statistics():
    alpha = 1.3 + 0.4j
    basis = FockBasis((25,))
    state = coherent_state([alpha], basis)
    assert state.norm == pytest.approx(1.0)
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
    assert state.expect(a) == pytest.approx(alpha, abs=1e-10)


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


def _loop_annihilation(basis, mode):
    """Reference build, one basis state at a time: a|n> = sqrt(n_m)|n - e_m>."""
    rows, cols, vals = [], [], []
    for col, occ in enumerate(basis.occupations):
        n = occ[mode]
        if n == 0:
            continue
        target = list(occ)
        target[mode] = n - 1
        rows.append(basis.state_index(target))
        cols.append(col)
        vals.append(math.sqrt(n))
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(basis.dimension, basis.dimension), dtype=complex
    )


@pytest.mark.parametrize("cutoffs", [(6,), (3, 5), (2, 0, 4), (1, 3, 2, 4)])
def test_annihilation_operator_matches_loop_build(cutoffs):
    basis = FockBasis(cutoffs)
    for mode in range(basis.mode_count):
        got = annihilation_operator(basis, mode)
        ref = _loop_annihilation(basis, mode)
        assert got.dtype == complex and got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_annihilation_operator_rejects_sector_and_bad_mode():
    sector = FockBasis((3, 3), total_number=3)
    with pytest.raises(ValueError):
        annihilation_operator(sector, 0)
    with pytest.raises(ValueError):
        sector.annihilation(1)
    for mode in (-1, 2):
        with pytest.raises(IndexError):
            annihilation_operator(FockBasis((3, 3)), mode)


def test_basis_shares_one_annihilation_operator_per_mode():
    basis = FockBasis((2, 3))
    a1 = basis.annihilation(1)
    assert basis.annihilation(1) is a1
    assert (a1 != annihilation_operator(basis, 1)).nnz == 0


def test_transfer_operator_matches_ladder_product():
    basis = FockBasis((3, 3))
    hop = transfer_operator(basis, 0, 1).toarray()
    a0 = annihilation_operator(basis, 0).toarray()
    a1 = annihilation_operator(basis, 1).toarray()
    assert np.allclose(hop, a0.conj().T @ a1)
    num = transfer_operator(basis, 1, 1).toarray()
    assert np.allclose(num, a1.conj().T @ a1)


def test_well_hamiltonian_diagonal_values():
    basis = FockBasis((3, 3))
    chi = np.array([[1.0, 0.5], [0.5, 2.0]])
    diag = well_hamiltonian_diagonal(chi, basis)
    for idx, (n1, n2) in enumerate(basis.occupations):
        expected = 0.5 * (n1 * (n1 - 1) + 2.0 * n2 * (n2 - 1)) + 0.5 * n1 * n2
        assert diag[idx] == pytest.approx(expected)


def test_evolve_matches_kerr_oracle_single_well():
    """Exact diagonal propagation against the closed-form coherent solution."""
    alpha = [1.1, 0.8]
    chi = np.array([[0.7, 0.2], [0.2, 0.5]])
    basis = FockBasis((14, 14))
    state = coherent_state(alpha, basis)
    ham = np.diag(well_hamiltonian_diagonal(chi, basis))
    for t in (0.3, 1.7):
        evolved = evolve(state, ham, t)
        oracle = kerr_oracle(alpha, chi, t)
        for mode in range(2):
            a = annihilation_operator(basis, mode)
            assert evolved.expect(a) == pytest.approx(oracle["a"][mode], abs=1e-8)
        for i in range(2):
            for j in range(2):
                ai = annihilation_operator(basis, i)
                aj = annihilation_operator(basis, j)
                val = evolved.expect((ai.conj().T @ aj).toarray())
                assert val == pytest.approx(oracle["adag_a"][i, j], abs=1e-8)


def test_kerr_revival():
    """H = (1/2) adag^2 a^2 with chi = 1 revives the coherent state at 2 pi."""
    basis = FockBasis((16,))
    alpha = [1.2]
    state = coherent_state(alpha, basis)
    ham = np.diag(well_hamiltonian_diagonal(np.array([[1.0]]), basis))
    revived = evolve(state, ham, 2.0 * math.pi)
    assert revived.fidelity(state) == pytest.approx(1.0, abs=1e-10)
    # and the oracle mean collapses then revives too
    assert kerr_oracle(alpha, [[1.0]], 2 * math.pi)["a"][0] == pytest.approx(
        alpha[0], abs=1e-12
    )


def test_evolve_paths_agree():
    """Diagonal, dense-eigh, and Krylov propagation give one answer."""
    basis = FockBasis((3, 3, 3, 3))
    state = coherent_state([0.5, 0.4, 0.5, 0.4], basis)
    ham = build_hamiltonian(0.3, np.array([[1.0, 0.2], [0.2, 0.8]]), basis)
    t = 0.7
    krylov = evolve(state, ham, t)  # dim 256 > dense limit? no: 256 < 2000 -> eigh
    dense = evolve(state, np.asarray(ham.toarray()), t)
    assert np.allclose(krylov.amplitudes, dense.amplitudes, atol=1e-9)
    assert krylov.norm == pytest.approx(1.0, abs=1e-9)


def test_evolve_rejects_non_hermitian():
    basis = FockBasis((2,))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    state = coherent_state([0.3], basis)
    with pytest.raises(ValueError):
        evolve(state, bad, 0.1)


def test_beam_splitter_is_unitary_and_swaps_at_pi_over_2():
    basis = FockBasis((6, 6, 6, 6))
    state = coherent_state([0.8, 0.0, 0.0, 0.0], basis)
    mixed = beam_splitter(state, math.pi / 4)
    assert mixed.norm == pytest.approx(1.0, abs=1e-10)
    # 50:50 split of a coherent state stays coherent: <n_a1> = <n_b1> = |alpha|^2/2
    n_a1 = transfer_operator(basis, 0, 0)
    n_b1 = transfer_operator(basis, 2, 2)
    assert mixed.expect(n_a1).real == pytest.approx(0.32, abs=1e-4)
    assert mixed.expect(n_b1).real == pytest.approx(0.32, abs=1e-4)
    # full swap at theta = pi/2
    swapped = beam_splitter(state, math.pi / 2)
    assert swapped.expect(n_a1).real == pytest.approx(0.0, abs=1e-4)
    assert swapped.expect(n_b1).real == pytest.approx(0.64, abs=1e-4)


def test_number_phase_uncertainty_slack():
    """Coherent states satisfy the number-quadrature uncertainty relation
    with the expected slack Delta n Delta X >= |<a>|/2."""
    basis = FockBasis((22,))
    alpha = 1.5
    state = coherent_state([alpha], basis)
    a = annihilation_operator(basis, 0).toarray()
    n_op = a.conj().T @ a
    x_op = 0.5 * (a + a.conj().T)
    var_n = state.expect(n_op @ n_op).real - state.expect(n_op).real ** 2
    var_x = state.expect(x_op @ x_op).real - state.expect(x_op).real ** 2
    bound = 0.25 * abs(state.expect(a)) ** 2
    assert var_n * var_x >= bound - 1e-10
    assert var_n * var_x == pytest.approx(alpha**2 * 0.25, abs=1e-8)
