import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphase.fock import (
    FockBasis,
    annihilation_operator,
    coherent_state,
    kerr_oracle,
)
from qphase.scenarios import parse_scenario, run_scenario
from qphase.stochastic import MomentAccumulator, antithetic, evolve, noise_block, step
from qphase.wigner import (
    LossChannel,
    WignerModel,
    WignerMoments,
    _weyl_coeff,
    _weyl_terms,
    evolve_snapshots,
    poly_add,
    poly_mul,
    poly_scale,
    run_wigner_x,
    sample_wigner_coherent,
    spin_polynomials,
    squeezing_xi2,
)

from oracles import squeezing_xi2 as per_block_xi2
from oracles import two_body_loss_number, wigner_derivative


def test_sampling_half_quantum_width():
    alpha0 = 1.5 - 0.5j
    fields = sample_wigner_coherent([alpha0], seed=3, trajectories=200_000)
    assert fields.shape == (200_000, 1)
    assert np.mean(fields) == pytest.approx(alpha0, abs=0.01)
    # symmetric-ordering vacuum: quadrature variance 1/4, |dphi|^2 = 1/2
    assert np.var(fields.real) == pytest.approx(0.25, rel=0.02)
    assert np.var(fields.imag) == pytest.approx(0.25, rel=0.02)
    assert np.mean(np.abs(fields - alpha0) ** 2) == pytest.approx(0.5, rel=0.02)
    # reproducible
    assert np.array_equal(fields, sample_wigner_coherent([alpha0], 3, 200_000))


def test_moment_conversion_against_fock():
    """Symmetric -> normal moment inversion on raw samples reproduces the
    quantum moments of the sampled coherent state."""
    a0, b0 = 1.2 + 0.3j, -0.4 + 0.9j
    fields = sample_wigner_coherent([a0, b0], seed=7, trajectories=400_000)
    mom = WignerMoments(fields[:, 0], fields[:, 1])
    # coherent state: <adag^q a^p bdag^s b^r> = conj(a0)^q a0^p conj(b0)^s b0^r
    for q, p, s, r in [(1, 1, 0, 0), (2, 2, 0, 0), (1, 0, 0, 1), (1, 2, 1, 0)]:
        exact = np.conj(a0) ** q * a0**p * np.conj(b0) ** s * b0**r
        scale = max(abs(exact), 1.0)
        assert abs(mom.normal(q, p, s, r) - exact) / scale < 0.02


def test_weyl_expansions_are_inverse():
    """The one ordering table serves both directions: the unsigned
    _weyl_coeff expansion E_W[conj^q alpha^p] = sum_k c_k <adag^(q-k) a^(p-k)>
    and the signed _weyl_terms expansion of <adag^q a^p> into symmetric
    moments compose to the identity, exactly and in either order, for
    every per-mode (q, p) <= 4."""

    def unsigned(q, p):
        return [(k, _weyl_coeff(p, q, k)) for k in range(min(q, p) + 1)]

    def signed(q, p):
        return [(j, c) for (j,), c in _weyl_terms((q,), (p,))]

    for q, p in itertools.product(range(5), repeat=2):
        for first, second in ((signed, unsigned), (unsigned, signed)):
            composed = {}
            for j, c1 in first(q, p):
                for k, c2 in second(q - j, p - j):
                    composed[j + k] = composed.get(j + k, 0.0) + c1 * c2
            assert composed == {0: 1.0, **{i: 0.0 for i in range(1, min(q, p) + 1)}}, (q, p, first.__name__)


def test_poly_mul_matches_operator_algebra():
    """The normally ordered product table agrees with dense matrix algebra."""
    basis = FockBasis((9, 9))
    a = annihilation_operator(basis, 0).toarray()
    b = annihilation_operator(basis, 1).toarray()
    # elements between low occupations are exact: spin bilinears move at
    # most 2 quanta, never touching the cutoff from there
    low = [i for i, occ in enumerate(basis.occupations) if max(occ) <= 4]
    sub = np.ix_(low, low)

    def to_matrix(poly):
        out = np.zeros_like(a)
        for (q, p, s, r), c in poly.items():
            out += c * (
                np.linalg.matrix_power(a.conj().T, q)
                @ np.linalg.matrix_power(a, p)
                @ np.linalg.matrix_power(b.conj().T, s)
                @ np.linalg.matrix_power(b, r)
            )
        return out

    sx, sy, sz, n_tot = spin_polynomials()
    state = coherent_state([0.9, 0.6], basis)
    for p1, p2 in [(sx, sy), (sz, sz), (sx, n_tot)]:
        prod_poly = poly_mul(p1, p2)
        direct = to_matrix(p1) @ to_matrix(p2)
        assert np.allclose(to_matrix(prod_poly)[sub], direct[sub], atol=1e-10)
        psi = state.amplitudes
        assert np.vdot(psi, to_matrix(prod_poly) @ psi) == pytest.approx(
            np.vdot(psi, direct @ psi), abs=1e-4
        )


def test_poly_helpers():
    p = {(1, 0, 0, 1): 2.0}
    assert poly_scale(p, 0.5) == {(1, 0, 0, 1): 1.0}
    assert poly_add(p, {(1, 0, 0, 1): 1.0, (0, 0, 0, 0): 3.0}) == {
        (1, 0, 0, 1): 3.0,
        (0, 0, 0, 0): 3.0,
    }


def test_kerr_mean_field_short_time():
    alpha0, chi = 2.0, 0.05
    times = np.linspace(0.0, 1.0, 6)
    res = run_wigner_x([alpha0], [[chi]], times, 4000, seed=5, dt=0.005)
    exact = [kerr_oracle([alpha0], [[chi]], t)["a"][0].real for t in times]
    assert np.allclose(res.mean("X").real, exact, atol=0.05)
    assert res.diverged == 0


def test_wigner_window_tracks_the_exact_kerr_mean_inside_its_window():
    """On the shipped wigner_window inputs (alpha0 = 2, chi = 0.05, 5000
    trajectories, seed 11), <X> is within 3 bars of the closed-form Kerr
    mean at every t <= 1 (chi nbar t <= 0.2).  Without the
    symmetric-ordering correction of the drift it is 4 bars off at t = 1."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "wigner_window.yaml"
    scenario = parse_scenario(path.read_text())
    alpha0, chi = scenario.params["alpha0"], scenario.params["chi"]
    inside = [r for r in run_scenario(scenario).rows if r["observable"] == "X" and r["t"] <= 1.0 + 1e-9]
    assert len(inside) == 11
    for row in inside:
        exact = kerr_oracle(alpha0, chi, row["t"])["a"][0].real
        assert abs(row["mean"] - exact) <= 3.0 * row["error"], row


def test_one_body_loss_decay():
    kappa, alpha0 = 0.4, 1.8
    times = np.linspace(0.0, 1.0, 5)
    res = run_wigner_x(
        [alpha0], None, times, 4000, seed=6, dt=0.005,
        channels=[LossChannel(powers=(1,), rate=kappa)],
    )
    n_est = res.mean("n_w").real - 0.5  # symmetric -> normal for n
    expected = abs(alpha0) ** 2 * np.exp(-2.0 * kappa * times)
    assert np.allclose(n_est, expected, atol=0.06)
    # amplitude decays at kappa
    assert np.allclose(
        res.mean("X").real, alpha0 * np.exp(-kappa * times), atol=0.05
    )


def test_two_body_loss_preserves_unaffected_mode():
    """A loss channel acting on component 0 only leaves component 1 alone."""
    model = WignerModel(
        chi=None,
        channels=(LossChannel(powers=(2, 0), rate=0.3),),
        components=2,
        seed=9,
    )
    fields = sample_wigner_coherent([1.5, 1.1], seed=9, trajectories=2000)
    snaps = evolve_snapshots(fields, model, dt=0.01, snapshot_steps=[0, 50])
    n1_before = np.mean(np.abs(snaps[0][:, 1]) ** 2) - 0.5
    n1_after = np.mean(np.abs(snaps[50][:, 1]) ** 2) - 0.5
    n0_before = np.mean(np.abs(snaps[0][:, 0]) ** 2) - 0.5
    n0_after = np.mean(np.abs(snaps[50][:, 0]) ** 2) - 0.5
    assert n1_after == pytest.approx(n1_before, abs=0.05)
    assert n0_after < 0.8 * n0_before  # two-body decay really happens


def test_two_body_loss_follows_the_population_master_equation():
    """Two-body loss O = a^2 at rate kappa from a coherent state with
    nbar = 16: <n> = mean(n_w) - 1/2 is within 4 bars of the population
    master equation at t = 1 and 2.  With the unordered Ito drift
    -2 kappa |phi|^2 phi in place of the Weyl symbol of adag a^2 it is
    15 and 20 bars low."""
    alpha0, kappa, times = 4.0, 0.0125, np.array([0.0, 1.0, 2.0])
    res = run_wigner_x(
        [alpha0], None, times, 10_000, seed=5, dt=0.005,
        channels=[LossChannel(powers=(2,), rate=kappa)],
    )
    exact = two_body_loss_number(alpha0, kappa, times)
    z = (res.mean("n_w").real - 0.5 - exact) / res.error("n_w")
    assert np.all(np.abs(z[1:]) <= 4.0), z
    assert exact[-1] < 0.8 * exact[0]  # the loss really acts


def test_loss_drift_carries_the_stratonovich_correction():
    """At zero noise a two-body loss channel phi^2 at rate kappa drifts by
    -2 kappa (|phi|^2 - 1) phi (Ito: the Weyl symbol of adag a^2)
    - 2 kappa phi (Ito->Stratonovich shift) = -2 kappa |phi|^2 phi."""
    kappa = 0.3
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    model = WignerModel(channels=(LossChannel((2,), kappa),))
    d = model.derivative(phi, 0, np.zeros((6, 1), dtype=complex), np.empty_like(phi))
    expected = -2.0 * kappa * np.abs(phi) ** 2 * phi
    assert np.allclose(d, expected, rtol=1e-14, atol=1e-15)


def _random_chi(rng, components):
    chi = rng.uniform(-0.2, 0.2, (components, components))
    return chi + chi.T


@given(
    seed=st.integers(0, 2**31 - 1),
    components=st.integers(1, 3),
    with_chi=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_loss_drift_matches_the_per_channel_reference(seed, components, with_chi, data):
    """The compiled density-polynomial drift and noise agree with the
    explicit per-channel gradient and Hessian products, to rounding: the
    merged like terms are summed in another order."""
    channel = st.builds(
        LossChannel,
        st.tuples(*[st.integers(0, 3)] * components),
        st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.7]),
    )
    channels = tuple(data.draw(st.lists(channel, min_size=1, max_size=4)))
    rng = np.random.default_rng(seed)
    model = WignerModel(
        chi=_random_chi(rng, components) if with_chi else None,
        channels=channels,
        seed=seed,
    )
    fields = rng.standard_normal((16, components)) + 1j * rng.standard_normal((16, components))
    zeta = model.noise(3, fields.shape[0], 0.01)
    np.testing.assert_allclose(
        model.derivative(fields, 3, zeta, np.empty_like(fields)), wigner_derivative(model, fields, zeta),
        rtol=1e-12, atol=1e-12,
    )


def test_noise_scales_each_channel_column_exactly():
    """The per-column scaling in WignerModel.noise gives the same bits as
    scaling the whole complex block by the broadcast row sqrt(kappa_l / 2dt)."""
    channels = (LossChannel((1, 0), 0.05), LossChannel((0, 1), 0.3),
                LossChannel((2, 0), 0.002), LossChannel((1, 1), 1.7))
    model = WignerModel(chi=np.eye(2), channels=channels, seed=9)
    dt = 0.003
    row = np.sqrt([ch.rate for ch in channels]) / math.sqrt(2.0 * dt)
    for step_index in (0, 7):
        raw = noise_block(9, step_index, 1000, 2 * len(channels))
        zeta = model.noise(step_index, 1000, dt)
        assert zeta.tobytes() == (raw.view(complex) * row).tobytes()


def test_lossless_drift_matches_the_reference():
    """Without loss channels the drift is the chi term alone,
    to rounding (the compiled matrix products sum the squared parts in
    another order; atol covers elements where the symmetric-ordering
    constant nearly cancels sum_t chi_st n_t), and no noise is drawn."""
    rng = np.random.default_rng(11)
    fields = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    for model in (WignerModel(), WignerModel(chi=_random_chi(rng, 3))):
        zeta = model.noise(5, fields.shape[0], 0.01)
        assert zeta is None
        d = model.derivative(fields, 5, zeta, np.empty_like(fields))
        np.testing.assert_allclose(
            d, wigner_derivative(model, fields, zeta), rtol=1e-14, atol=1e-15
        )


def test_model_is_frozen_over_its_own_copies():
    """The drift is compiled from chi and the channels on the first call
    for a field shape, so the model cannot change after it: assigning a
    field or writing into chi fails, and changing the array and list it
    was built from changes no bit of its drift.  A replaced copy compiles
    the new values."""
    rng = np.random.default_rng(5)
    chi = _random_chi(rng, 2)
    powers = [1, 1]
    channels = [LossChannel(powers, 0.3)]
    model = WignerModel(chi=chi, channels=channels, seed=2)
    fields = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    zeta = model.noise(0, 16, 0.01)
    before = model.derivative(fields, 0, zeta, np.empty_like(fields)).copy()
    for name, value in (("chi", chi), ("channels", ()), ("seed", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    with pytest.raises(ValueError):
        model.chi[0, 0] = 9.0
    chi[0, 0] = 9.0
    powers[0] = 2
    channels.append(LossChannel((0, 2), 1.0))
    assert model.derivative(fields, 0, zeta, np.empty_like(fields)).tobytes() == before.tobytes()
    changed = dataclasses.replace(model, chi=chi, channels=channels)
    zeta = changed.noise(0, 16, 0.01)
    d = changed.derivative(fields, 0, zeta, np.empty_like(fields))
    np.testing.assert_allclose(d, wigner_derivative(changed, fields, zeta), rtol=1e-12, atol=1e-12)
    assert not np.allclose(d, before)


def test_diverged_trajectory_leaves_later_snapshots():
    """A trajectory far outside the midpoint step's stable range diverges
    on the first step; later snapshots hold only the survivors, which
    evolve exactly as they would without it.  The imaginary part of chi
    (a real part of G) keeps the model on the stepped path: the exact flow
    of a real chi keeps |phi| = 100."""
    model = WignerModel(chi=np.array([[1.0 + 0.01j]]), seed=4)
    fields = sample_wigner_coherent([1.0], seed=4, trajectories=50)
    fields[3] = 100.0
    snaps = evolve_snapshots(fields, model, dt=0.01, snapshot_steps=[0, 1, 5])
    assert snaps[0].shape == (50, 1)
    assert snaps[1].shape == snaps[5].shape == (49, 1)
    clean = evolve_snapshots(np.delete(fields, 3, axis=0), model, dt=0.01, snapshot_steps=[5])
    assert np.array_equal(snaps[5], clean[5])


def test_snapshot_mean_equals_run_ensemble_mean():
    """Snapshots and run_ensemble share one time loop: on the same seeded
    lossy model and the same independent samples, the snapshot mean of X
    is the mean of the unpaired `evolve` loop over its live rows bit for
    bit; and the paired run of run_wigner_x is that loop on the mirrored
    samples with mirrored noise, averaged over each pair."""
    alpha, chi, seed, dt, n = [1.5, 1.0], [[0.1, 0.05], [0.05, 0.1]], 12, 0.01, 500
    channels = (LossChannel((1, 0), 0.1), LossChannel((1, 1), 0.02))
    times = np.array([0.0, 0.1, 0.2])
    model = WignerModel(chi=np.asarray(chi), channels=channels, components=2, seed=seed)
    paired = run_wigner_x(alpha, chi, times, n, seed, dt, channels=channels)
    fields = sample_wigner_coherent(alpha, seed, n)
    unpaired = {k: s[alive, 0].real for k, s, alive in evolve(fields, model, dt, 20, record=[10, 20])}
    snaps = evolve_snapshots(fields, model, dt, snapshot_steps=[10, 20])
    mirrored = antithetic(lambda k: sample_wigner_coherent(alpha, seed, k), n, np.asarray(alpha, dtype=complex))
    pair_states = {k: s for k, s, _ in evolve(mirrored, model, dt, 20, record=[10, 20], pairs=True)}
    for i, k in ((1, 10), (2, 20)):
        acc, loop = MomentAccumulator(), MomentAccumulator()
        acc.add(snaps[k][:, 0].real)
        loop.add(unpaired[k])
        assert acc.mean == loop.mean
        acc = MomentAccumulator()
        values = pair_states[k][:, 0].real
        acc.add(0.5 * (values[: n // 2] + values[n // 2:]))
        assert acc.mean == paired.mean("X")[i]


def test_squeezing_coherent_state_is_unity():
    """An unsqueezed coherent spin state has xi^2 = 1 (shot noise)."""
    fields = sample_wigner_coherent([2.0, 2.0], seed=21, trajectories=100_000)
    result = squeezing_xi2(fields[:, 0], fields[:, 1])
    assert result.xi2 == pytest.approx(1.0, abs=0.05)
    assert result.total_number == pytest.approx(8.0, rel=0.05)
    assert result.error < 0.05


def test_squeezing_one_axis_twisting_drops_below_shot_noise():
    """Kerr-type twisting of a two-component field squeezes xi^2 < 1."""
    n_per = 20.0
    alpha = math.sqrt(n_per)
    chi = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 0.5  # relative-phase twisting
    model = WignerModel(chi=chi, components=2, seed=31)
    fields = sample_wigner_coherent([alpha, alpha], seed=31, trajectories=20_000)
    t_twist = 0.02  # short OAT time
    steps = int(round(t_twist / 1e-3))
    snaps = evolve_snapshots(fields, model, dt=1e-3, snapshot_steps=[steps])
    result = squeezing_xi2(snaps[steps][:, 0], snaps[steps][:, 1])
    assert result.xi2 < 1.0 - 3.0 * result.error
    assert result.xi2 < 0.7


def test_squeezing_equals_the_per_block_reference_byte_for_byte(monkeypatch):
    """Building the spin products once per call changes no bit of the
    result; poly_mul still runs on every call (12 products)."""
    twisted = WignerModel(chi=np.array([[0.5, -0.5], [-0.5, 0.5]]), seed=8)
    fields = sample_wigner_coherent([3.0, 2.5 + 0.5j], seed=8, trajectories=3000)
    snaps = evolve_snapshots(fields, twisted, dt=1e-3, snapshot_steps=[0, 20])
    calls = []
    monkeypatch.setattr("qphase.wigner.poly_mul", lambda p1, p2: calls.append(1) or poly_mul(p1, p2))
    samples = [snaps[0], snaps[20], snaps[20][:20], snaps[20][:3]]
    for sample in samples:
        a, b = sample[:, 0], sample[:, 1]
        got, ref = squeezing_xi2(a, b), per_block_xi2(a, b)
        for field in ("xi2", "error", "mean_spin", "min_variance", "total_number"):
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(ref, field)).tobytes()
    assert len(calls) == 12 * len(samples)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((16,), (1,)), ((1000,), (999,)), ((1,), (1,)), ((0,), (0,)), ((10, 2), (10, 2)), ((10,), (10, 1))],
    ids=["one-b", "one-short", "one-sample", "empty", "two-d", "column-b"],
)
def test_squeezing_rejects_samples_of_unequal_shape_or_fewer_than_two(shape_a, shape_b):
    """Unequal lengths used to broadcast a single sample (xi^2 = 0.185 with
    an infinite bar) or fail deep inside numpy; now both shapes are named."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal(shape_a) + 2.0
    b = rng.standard_normal(shape_b) + 2.0j
    with pytest.raises(ValueError, match=re.escape(f"got shapes {shape_a} and {shape_b}")):
        squeezing_xi2(a, b)


def test_squeezing_forms_each_raw_moment_once_on_the_whole_sample(monkeypatch):
    """One squeezing_xi2 call forms each distinct monomial
    conj(a)^q a^p conj(b)^s b^r of its spin moments once, on the whole
    sample and not again per block.  A monomial takes at most three
    elementwise products of its four power factors, so the samples log
    every product taken on them or on arrays made from them."""
    products = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs]
            result = getattr(ufunc, method)(*inputs, **kwargs)
            if ufunc is np.multiply and method == "__call__":
                products.append(result.shape)
            return result.view(Logged) if isinstance(result, np.ndarray) else result

    init = WignerMoments.__init__

    def logged_init(self, a, b):
        init(self, a, b)
        self.a, self.b = self.a.view(Logged), self.b.view(Logged)

    monkeypatch.setattr(WignerMoments, "__init__", logged_init)
    sx, sy, sz, n_tot = spin_polynomials()
    polys = [sx, sy, sz, n_tot] + [poly_mul(p1, p2) for p1 in (sx, sy, sz) for p2 in (sx, sy, sz)]
    keys = {
        (q - k, p - k, s - l, r - l)
        for poly in polys
        for q, p, s, r in poly
        for (k, l), _ in _weyl_terms((q, s), (p, r))
    }
    assert len(keys) == 14
    fields = sample_wigner_coherent([2.0, 1.5j], seed=6, trajectories=400)
    result = squeezing_xi2(fields[:, 0], fields[:, 1])
    assert math.isfinite(result.xi2) and math.isfinite(result.error)
    assert products and all(shape == (400,) for shape in products)
    assert len(products) <= 3 * len(keys)


def _stepped_reference(model, fields, dt, n_steps):
    """The fields after n_steps midpoint steps of `model`, looped over
    `stochastic.step` with the model's own derivative."""
    work = fields.copy()
    mid, slope = np.empty_like(work), np.empty_like(work)
    for k in range(n_steps):
        noise = model.noise(k, work.shape[0], dt)
        step(work, lambda y, out: model.derivative(y, k, noise, out), dt, mid, slope)
    return work


# The lossless runs of perfbench's wigner-loss workload: the one-component
# wigner scenario, and the two-component cross-Kerr library run.
_LOSSLESS_INPUTS = {
    "one component": ([10.0], [[0.01]], 0.002, 100, 5000),
    "cross-Kerr": ([3.0, 3.0], [[0.01, 0.005], [0.005, 0.01]], 0.01, 100, 10_000),
}


@pytest.mark.parametrize("case", sorted(_LOSSLESS_INPUTS))
def test_lossless_flow_is_the_limit_of_the_midpoint_steps(case):
    """A lossless real-chi model is not stepped: evolve yields
    phi(0) exp(t G(n(0))).  The midpoint loop agrees to 1e-6 relative, and
    its gap shrinks 4x when dt halves (the midpoint's O(dt^2) phase error)."""
    alpha, chi, dt, n_steps, n = _LOSSLESS_INPUTS[case]
    model = WignerModel(chi=np.array(chi), seed=11)
    fields = sample_wigner_coherent(alpha, 11, n)
    [(_, flowed, alive)] = evolve(fields, model, dt, n_steps, record=[n_steps])
    assert alive.all()
    gaps = []
    for substeps in (1, 2):
        ref = _stepped_reference(model, fields, dt / substeps, substeps * n_steps)
        gaps.append(np.max(np.abs(flowed - ref) / np.abs(ref)))
    assert gaps[0] <= 1e-6
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5, gaps
    # the densities are constants of the flow
    np.testing.assert_allclose(np.abs(flowed), np.abs(fields), rtol=1e-14)


@pytest.mark.parametrize("build", [
    lambda: WignerModel(chi=np.array([[0.01]]), omega=np.eye(1)),
    lambda: run_wigner_x([2.0], [[0.01]], np.array([0.0, 0.2]), 20, 3, 0.01, omega=np.eye(1)),
], ids=["WignerModel", "run_wigner_x"])
def test_the_engine_takes_no_linear_coupling(build):
    """The Wigner drift is chi, the loss channels and their noise alone: a
    linear coupling omega is no argument of the model or of its run."""
    with pytest.raises(TypeError, match="omega"):
        build()


@pytest.mark.parametrize("change", [
    {"chi": np.array([[0.01 + 0.001j]])},
    {"channels": (LossChannel((1,), 0.05),)},
])
def test_noise_or_a_complex_chi_take_the_stepped_path(change):
    """A complex chi (a real part of G) or a loss channel gives no flow:
    evolve steps the midpoint scheme bit for bit, and the ensemble says
    so."""
    model = WignerModel(**{"chi": np.array([[0.01]]), "seed": 3, **change})
    fields = sample_wigner_coherent([2.0], 3, 200)
    assert model.flow(fields) is None
    [(_, stepped, _)] = evolve(fields, model, 0.01, 20, record=[20])
    assert stepped.tobytes() == _stepped_reference(model, fields, 0.01, 20).tobytes()
    times = np.array([0.0, 0.2])
    assert run_wigner_x([2.0], model.chi, times, 20, 3, 0.01,
                        channels=model.channels).integrator == "midpoint"
    assert run_wigner_x([2.0], [[0.01]], times, 20, 3, 0.01).integrator == "exact_flow"
