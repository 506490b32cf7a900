"""End-to-end acceptance gate: nine criteria, one pass/fail line each.

Every criterion has a pinned tolerance.  Run with ``pytest -v`` (one
PASSED/FAILED line per criterion) or ``pytest -s`` to see the printed
summary lines with the measured numbers.
"""

import math

import numpy as np
import pytest

from qphase.doublewell import doublewell_scan
from qphase.fock import kerr_oracle
from qphase.gaussian_entropy import (
    GaussianPhasePoint,
    fock_inner_product,
    inner_product,
    renyi_entropy,
)
from qphase.lattice import hilbert_dimension
from qphase.plusp import run_kerr_plusp, time_reversal_test
from qphase.stochastic import noise_block
from qphase.variational import (
    VariationalState,
    expectation,
    kerr_hamiltonian,
    propagate,
    ring_initial_state,
)
from qphase.wigner import LossChannel, run_wigner_x


def _verdict(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def test_criterion_1_plusp_time_reversal():
    """+P Kerr run reversed at tau_r returns <X> to its start within 2 bars."""
    report = time_reversal_test(
        alpha0=10.0,
        chi=0.01,
        reversal_time=0.5,
        trajectory_count=10_000,
        seed=7,
        dt=0.002,
    )
    ok = (
        not report.inconclusive
        and report.diverged == 0
        and report.recovery_residual <= 2.0 * report.residual_bar
        and report.error_growth
    )
    _verdict(
        1,
        "positive-P time reversal",
        ok,
        f"residual={report.recovery_residual:.4f} vs 2*bar={2 * report.residual_bar:.4f}, "
        f"error grows={report.error_growth}",
    )


def test_criterion_2_plusp_matches_exact_kerr():
    """+P <X> agrees with the closed-form Kerr solution within CLT bars."""
    alpha0, chi, dt = 10.0, 0.01, 0.0025
    times = np.linspace(0.0, 0.5, 21)
    result = run_kerr_plusp(
        {"kind": "coherent", "alpha": [alpha0]},
        chi,
        times,
        trajectory_count=4000,
        seed=42,
        dt=dt,
    )
    exact = np.array(
        [kerr_oracle([alpha0], [[chi]], t)["a"][0].real for t in times]
    )
    diff = np.abs(result.mean("X").real - exact)
    bars = np.maximum(result.error("X"), 1e-12)
    within_3sigma = np.mean(diff <= 3.0 * bars)
    ok = result.diverged == 0 and within_3sigma >= 0.9 and diff.max() <= 0.05
    _verdict(
        2,
        "positive-P vs exact Kerr",
        ok,
        f"max|diff|={diff.max():.4f} (<=0.05), "
        f"{100 * within_3sigma:.0f}% of points within 3 bars (>=90%)",
    )


def test_criterion_3_variational_kerr_revival():
    """16 coherent components track the exact Kerr <a> through one revival;
    8 components are strictly worse."""
    alpha, chi = math.sqrt(3.0), 1.0
    dt = 2.0 * math.pi / 2000.0
    n_steps = 2000  # one full revival of H = (chi/2) adag^2 a^2

    def max_error(members):
        state = ring_initial_state([alpha], members, radius=0.1)
        ham = kerr_hamiltonian(chi, modes=1)
        times, states = propagate(state, ham, dt, n_steps, lam=1e-4, record_every=50)
        errs = []
        for t, st in zip(times, states):
            exact = kerr_oracle([alpha], [[chi]], t)["a"][0]
            errs.append(abs(expectation(st, (), (0,)) - exact))
        return max(errs)

    err16 = max_error(16)
    err8 = max_error(8)
    ok = err16 <= 0.05 and err8 > err16
    _verdict(
        3,
        "variational Kerr revival",
        ok,
        f"max|<a>-exact|: N=16 {err16:.4f} (<=0.05), N=8 {err8:.4f} (must exceed N=16)",
    )


def test_criterion_4_variational_linear_decoupling():
    """For H = omega adag a the components decouple: each amplitude rotates
    as alpha e^{-i omega t} with constant log-weights, to 1e-6."""
    omega, dt, n_steps = 0.1, 2.0 * math.pi / 2000.0, 20_000
    rng = np.random.default_rng(5)
    members = 4
    amps = 3.0 * (rng.standard_normal((members, 1)) + 1j * rng.standard_normal((members, 1))) / math.sqrt(2.0)
    alpha0 = 0.1 * (rng.standard_normal(members) + 1j * rng.standard_normal(members))
    state = VariationalState(alpha0=alpha0.astype(complex), amps=amps)
    ham = kerr_hamiltonian(0.0, modes=1, omega=[omega])
    t_final = n_steps * dt
    _, states = propagate(state, ham, dt, n_steps, lam=1e-10, record_every=n_steps)
    final = states[-1]
    exact_amps = amps * np.exp(-1j * omega * t_final)
    dev = max(
        float(np.abs(final.amps - exact_amps).max()),
        float(np.abs(final.alpha0 - alpha0).max()),
    )
    ok = dev <= 1e-6
    _verdict(
        4,
        "variational linear decoupling",
        ok,
        f"max parameter deviation {dev:.2e} (<=1e-6) after {n_steps} steps",
    )


def test_criterion_5_gaussian_entropy_oracles():
    """Determinant inner products match brute-force Fock / Jordan-Wigner
    constructions, and a discrete mixture's S2 matches its density matrix."""
    # boson: determinant vs truncated-Fock trace
    nb1, nb2 = np.array([[0.3]]), np.array([[0.6]])
    det_b = inner_product(
        GaussianPhasePoint("boson", nb1), GaussianPhasePoint("boson", nb2)
    )
    fock_b = fock_inner_product(nb1, nb2, "boson", cutoff=60)
    err_b = abs(det_b - fock_b)

    # fermion: determinant vs Jordan-Wigner trace (two modes)
    nf1 = np.array([[0.2, 0.05], [0.05, 0.35]])
    nf2 = np.array([[0.7, -0.1], [-0.1, 0.55]])
    det_f = inner_product(
        GaussianPhasePoint("fermion", nf1), GaussianPhasePoint("fermion", nf2)
    )
    jw_f = fock_inner_product(nf1, nf2, "fermion")
    err_f = abs(det_f - jw_f)

    # weighted mixture: renyi_entropy("all") vs -ln Tr rho^2 by matrices
    from qphase.gaussian_entropy import fermion_gaussian_matrix

    mats = [nf1, nf2]
    weights = [0.4, 0.6]
    rho = sum(w * fermion_gaussian_matrix(m) for w, m in zip(weights, mats))
    s2_brute = -math.log(np.trace(rho @ rho).real)
    points = [
        GaussianPhasePoint("fermion", m, w) for m, w in zip(mats, weights)
    ]
    s2_mix = renyi_entropy(points, pairing="all").s2
    err_mix = abs(s2_mix - s2_brute)

    ok = err_b <= 1e-10 and err_f <= 1e-8 and err_mix <= 1e-8
    _verdict(
        5,
        "Gaussian entropy oracles",
        ok,
        f"boson {err_b:.1e} (<=1e-10), fermion {err_f:.1e} (<=1e-8), "
        f"mixture S2 {err_mix:.1e} (<=1e-8)",
    )


def test_criterion_6_wigner_kerr_window_and_loss():
    """Wigner <X> tracks the exact Kerr mean within 5% of |alpha| over
    chi*nbar*t <= 0.2, and one-body loss decays the density at rate 2 kappa."""
    alpha0, chi, dt = 2.0, 0.05, 0.005
    times = np.linspace(0.0, 1.0, 11)  # chi*nbar*t_max = 0.2
    result = run_wigner_x(
        [alpha0], [[chi]], times, trajectory_count=5000, seed=11, dt=dt
    )
    exact = np.array(
        [kerr_oracle([alpha0], [[chi]], t)["a"][0].real for t in times]
    )
    dev = np.abs(result.mean("X").real - exact).max() / abs(alpha0)

    kappa = 0.3
    loss_times = np.linspace(0.0, 1.0, 6)
    loss = run_wigner_x(
        [alpha0],
        None,
        loss_times,
        trajectory_count=5000,
        seed=12,
        dt=0.005,
        channels=[LossChannel(powers=(1,), rate=kappa)],
    )
    # n_w is symmetric-ordered: <n> = n_w - 1/2
    n_est = loss.mean("n_w").real - 0.5
    n_exact = abs(alpha0) ** 2 * np.exp(-2.0 * kappa * loss_times)
    loss_dev = np.abs(n_est - n_exact).max() / abs(alpha0) ** 2

    ok = dev <= 0.05 and loss_dev <= 0.05
    _verdict(
        6,
        "Wigner Kerr window + loss",
        ok,
        f"mean-field dev {100 * dev:.2f}% (<=5%), loss-decay dev {100 * loss_dev:.2f}% (<=5%)",
    )


def test_criterion_7_doublewell_squeezing_entanglement():
    """N=200 double well shows spin squeezing below shot noise and an
    entanglement product criterion below 1 somewhere in tau in [1, 100]."""
    points = doublewell_scan(200.0, [1, 5, 10, 20, 30, 40, 50, 60, 80, 100])
    best_db = min(p.s_db_theta for p in points)
    best_e = min(p.e_product for p in points)
    ok = best_db <= -3.0 and best_e <= 0.9
    _verdict(
        7,
        "double-well squeezing/entanglement",
        ok,
        f"min S_dB={best_db:.2f} (<=-3), min E_product={best_e:.3f} (<=0.9)",
    )


def test_criterion_8_hilbert_dimension():
    """Counting formulas match brute-force enumeration and the asymptotic
    size of a half-filled 500000-mode lattice."""
    from itertools import product

    def brute_boson(n, m):
        return sum(
            1 for occ in product(range(n + 1), repeat=m) if sum(occ) == n
        )

    ok = True
    for n in range(0, 7):
        for m in range(1, 5):
            exact, log10 = hilbert_dimension(n, m, "boson")
            ok &= exact == brute_boson(n, m)
            ok &= abs(log10 - math.log10(exact)) <= 1e-9 if exact else False
    for m in range(1, 8):
        exact, log10 = hilbert_dimension(3, m, "fermion")
        ok &= exact == 2**m and abs(log10 - m * math.log10(2)) <= 1e-12

    big = 500_000
    _, log_b = hilbert_dimension(big, big, "boson")
    # C(2N-1, N) ~ 2^(2N-1)/sqrt(pi N)
    stirling = (2 * big - 1) * math.log10(2.0) - 0.5 * math.log10(math.pi * big)
    _, log_f = hilbert_dimension(big, big, "fermion")
    ok &= abs(log_b - stirling) <= 0.01 * stirling
    ok &= abs(log_f - big * math.log10(2.0)) <= 1e-6
    _verdict(
        8,
        "Hilbert-space counting",
        ok,
        f"boson log10={log_b:.0f} (asymptotic {stirling:.0f}), fermion log10={log_f:.0f}",
    )


def test_criterion_9_bitwise_reproducibility():
    """Keyed-stream noise and a full ensemble run are bit-exact under
    reruns and trajectory-count extension."""
    b1 = noise_block(123, 7, 4, 3)
    b2 = noise_block(123, 7, 4, 3)
    b_ext = noise_block(123, 7, 8, 3)
    noise_ok = np.array_equal(b1, b2) and np.array_equal(b1, b_ext[:4])

    times = np.linspace(0.0, 0.1, 5)
    runs = [
        run_kerr_plusp(
            {"kind": "coherent", "alpha": [3.0]},
            0.1,
            times,
            trajectory_count=500,
            seed=99,
            dt=0.005,
        )
        for _ in range(2)
    ]
    run_ok = np.array_equal(runs[0].mean("X"), runs[1].mean("X")) and np.array_equal(
        runs[0].error("X"), runs[1].error("X")
    )
    ok = noise_ok and run_ok
    _verdict(
        9,
        "bitwise reproducibility",
        ok,
        f"noise block bit-exact={noise_ok}, ensemble rerun bit-exact={run_ok}",
    )
