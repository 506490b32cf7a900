import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qphase.gaussian_entropy import (
    PAIR_BLOCK,
    GaussianPhasePoint,
    _product,
    boson_gaussian_matrix,
    fermion_gaussian_matrix,
    fock_inner_product,
    inner_product,
    renyi_entropy,
)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        GaussianPhasePoint("anyon", np.eye(2))
    with pytest.raises(ValueError):
        inner_product(
            GaussianPhasePoint("boson", [[0.3]]),
            GaussianPhasePoint("fermion", [[0.3]]),
        )


def test_inner_product_symmetry():
    n1 = np.array([[0.3, 0.1], [0.1, 0.8]])
    n2 = np.array([[0.5, -0.2], [-0.2, 0.4]])
    for stats in ("boson", "fermion"):
        p1 = GaussianPhasePoint(stats, n1)
        p2 = GaussianPhasePoint(stats, n2)
        assert inner_product(p1, p2) == pytest.approx(inner_product(p2, p1))


def test_boson_purity_thermal_state():
    """Single thermal mode: Tr rho^2 = 1/(2 nbar + 1), S2 = ln(2 nbar + 1)."""
    nbar = 0.8
    p = GaussianPhasePoint("boson", [[nbar]])
    purity = inner_product(p, p).real
    assert purity == pytest.approx(1.0 / (2 * nbar + 1), abs=1e-12)
    res = renyi_entropy([p, p], pairing="disjoint")
    assert res.s2 == pytest.approx(math.log(2 * nbar + 1), abs=1e-12)
    assert not res.sign_problem


def test_fermion_purity_thermal_mode():
    """One fermion mode with occupation f: Tr rho^2 = f^2 + (1-f)^2."""
    f = 0.3
    p = GaussianPhasePoint("fermion", [[f]])
    assert inner_product(p, p).real == pytest.approx(f**2 + (1 - f) ** 2, abs=1e-12)


def test_boson_determinant_vs_fock_trace():
    n1 = np.array([[0.5, 0.15], [0.15, 0.9]])
    n2 = np.array([[0.7, -0.1], [-0.1, 0.4]])
    det_val = inner_product(
        GaussianPhasePoint("boson", n1), GaussianPhasePoint("boson", n2)
    )
    fock_val = fock_inner_product(n1, n2, "boson", cutoff=35)
    assert abs(det_val - fock_val) < 1e-8


def test_fermion_determinant_vs_jordan_wigner():
    n1 = np.array([[0.25, 0.1, 0.0], [0.1, 0.6, -0.05], [0.0, -0.05, 0.45]])
    n2 = np.array([[0.8, 0.0, 0.1], [0.0, 0.35, 0.0], [0.1, 0.0, 0.55]])
    det_val = inner_product(
        GaussianPhasePoint("fermion", n1), GaussianPhasePoint("fermion", n2)
    )
    jw_val = fock_inner_product(n1, n2, "fermion")
    assert abs(det_val - jw_val) < 1e-10


def test_gaussian_matrices_are_normalized():
    nb = np.array([[0.6]])
    mat_b = boson_gaussian_matrix(nb, cutoff=60)
    assert np.trace(mat_b).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(mat_b @ np.diag(np.arange(61))).real == pytest.approx(0.6, abs=1e-10)
    nf = np.array([[0.3, 0.05], [0.05, 0.7]])
    mat_f = fermion_gaussian_matrix(nf)
    assert np.trace(mat_f).real == pytest.approx(1.0, abs=1e-12)


def test_renyi_all_pairing_exact_for_mixture():
    """A weighted two-member boson mixture: the full pair sum reproduces
    -ln Tr rho^2 computed from dense matrices."""
    mats = [np.array([[0.4]]), np.array([[1.1]])]
    weights = [0.3, 0.7]
    cutoff = 80
    rho = sum(w * boson_gaussian_matrix(m, cutoff) for w, m in zip(weights, mats))
    s2_brute = -math.log(np.trace(rho @ rho).real)
    points = [GaussianPhasePoint("boson", m, w) for m, w in zip(mats, weights)]
    res = renyi_entropy(points, pairing="all")
    assert res.s2 == pytest.approx(s2_brute, abs=1e-8)
    assert res.pairs == 3  # (0,0), (0,1), (1,1)


def test_renyi_disjoint_pairing_sampled_ensemble():
    """Disjoint pairing is an honest U-statistic: a sampled thermal
    ensemble of pure-state-like points recovers the mixture entropy."""
    rng = np.random.default_rng(4)
    nbar = 0.5
    # Gaussian ensemble whose mean Green's function is nbar
    points = [
        GaussianPhasePoint("fermion", [[float(np.clip(rng.normal(nbar, 0.05), 0.05, 0.95))]])
        for _ in range(4000)
    ]
    res = renyi_entropy(points, pairing="disjoint")
    exact = -math.log(nbar**2 + (1 - nbar) ** 2)
    # finite-width ensemble: agreement within a few CLT bars + width bias
    assert res.s2 == pytest.approx(exact, abs=5 * res.s2_error + 0.02)
    assert res.pairs == 2000


def test_renyi_requires_two_points():
    with pytest.raises(ValueError):
        renyi_entropy([GaussianPhasePoint("boson", [[0.5]])])
    with pytest.raises(ValueError):
        renyi_entropy(
            [GaussianPhasePoint("boson", [[0.5]])] * 2, pairing="ring"
        )


def test_sign_problem_flag():
    """Complex-weighted points that cancel the purity raise the flag."""
    points = [
        GaussianPhasePoint("boson", [[0.5]], weight=1.0),
        GaussianPhasePoint("boson", [[0.5]], weight=-3.0),
    ]
    res = renyi_entropy(points, pairing="disjoint")
    assert res.sign_problem
    assert math.isnan(res.s2)


def _green_functions(rng, count, modes):
    """Hermitian Green's functions with spectra in (0.05, 0.95)."""
    a = rng.standard_normal((count, modes, modes)) + 1j * rng.standard_normal((count, modes, modes))
    q, _ = np.linalg.qr(a)
    spectra = rng.uniform(0.05, 0.95, (count, 1, modes))
    return (q * spectra) @ q.conj().transpose(0, 2, 1)


def _bits(value):
    return np.asarray(value).tobytes()


def test_stacked_inner_product_matches_scalar_calls():
    rng = np.random.default_rng(12)
    for stats in ("boson", "fermion"):
        n1, n2 = (_green_functions(rng, 6, 3).reshape(2, 3, 3, 3) for _ in range(2))
        stacked = inner_product(GaussianPhasePoint(stats, n1), GaussianPhasePoint(stats, n2))
        assert stacked.shape == (2, 3)
        scalar = [
            inner_product(GaussianPhasePoint(stats, a), GaussianPhasePoint(stats, b))
            for a, b in zip(n1.reshape(-1, 3, 3), n2.reshape(-1, 3, 3))
        ]
        assert all(type(v) is complex for v in scalar)
        assert _bits(stacked.ravel()) == _bits(scalar)


@pytest.mark.parametrize("stats", ["boson", "fermion"])
@pytest.mark.parametrize("pairing", ["all", "disjoint"])
@pytest.mark.parametrize("complex_weights", [True, False])
def test_blocked_renyi_matches_scalar_loop_bit_for_bit(stats, pairing, complex_weights):
    """Odd point counts whose pair counts (561 and 513) are not a multiple
    of PAIR_BLOCK, so the last block is partial."""
    count = 33 if pairing == "all" else 2 * PAIR_BLOCK + 3
    pairs = count * (count + 1) // 2 if pairing == "all" else count // 2
    assert pairs > PAIR_BLOCK and pairs % PAIR_BLOCK
    rng = np.random.default_rng(count)
    weights = rng.uniform(0.5, 1.5, count)
    if complex_weights:
        weights = weights * np.exp(0.3j * rng.standard_normal(count))
    points = [
        GaussianPhasePoint(stats, n, complex(w) if complex_weights else float(w))
        for n, w in zip(_green_functions(rng, count, 3), weights)
    ]
    new = renyi_entropy(points, pairing=pairing)
    ref = oracles.renyi_entropy(points, pairing=pairing)
    assert new.pairs == pairs
    for field in ("s2", "purity", "error", "s2_error", "pairs", "sign_problem"):
        assert _bits(getattr(new, field)) == _bits(getattr(ref, field)), field


@pytest.mark.parametrize("kinds", [
    ("complex", "complex"), ("complex", "real"), ("real", "complex"), ("real", "real"),
])
def test_pair_product_rounds_as_the_scalar_product(kinds):
    """Each element of ``_product`` has the bits of Python's scalar
    product of the same operands, and real operands give a real array."""
    rng = np.random.default_rng(7)
    a, b = (
        rng.standard_normal(64) + (1j * rng.standard_normal(64) if kind == "complex" else 0.0)
        for kind in kinds
    )
    out = _product(a, b)
    assert np.iscomplexobj(out) == ("complex" in kinds)
    ref = np.array([x * y for x, y in zip(a.tolist(), b.tolist())])
    assert _bits(out) == _bits(ref)


def test_renyi_rejects_mixed_statistics():
    points = [GaussianPhasePoint("boson", [[0.5]]), GaussianPhasePoint("fermion", [[0.5]])]
    with pytest.raises(ValueError, match="boson with fermion"):
        renyi_entropy(points * 2, pairing="disjoint")
