"""Calibration of the antithetic pair bars over 300 seeds.

These tests lie outside the tier-1 ``testpaths``; run them with
``python -m pytest calibration -s`` (under a minute on one core).  Each
runs one paired estimator at every seed of ``SEEDS`` and prints the sd of
the estimate over the seeds against the root mean square of the bar the
runs reported: a bar that is calibrated gives a ratio near 1.  The sd of
300 draws has a relative standard error of about 4 %.
"""

import math

import numpy as np

from qphase.fock import kerr_oracle
from qphase.plusp import run_kerr_plusp, time_reversal_test
from qphase.wigner import LossChannel, run_wigner_x

SEEDS = range(1000, 1300)


def _calibration(label, runs, exact=None):
    """(sd over seeds / rms bar, z values or None) of (estimate, bar) pairs, printed."""
    estimates, bars = (np.array(column) for column in zip(*runs))
    ratio = np.std(estimates, ddof=1) / math.sqrt(np.mean(bars**2))
    line = f"{label}: {len(estimates)} seeds, sd {np.std(estimates, ddof=1):.3g}, rms bar " \
           f"{math.sqrt(np.mean(bars**2)):.3g}, ratio {ratio:.3f}"
    z = None
    if exact is not None:
        z = (estimates - exact) / bars
        line += f"; z = (estimate - exact) / bar: mean {z.mean():+.3f}, sd {z.std(ddof=1):.3f}, " \
                f"beyond 2: {np.mean(np.abs(z) > 2):.1%}, max |z| {np.abs(z).max():.2f}"
    print(line)
    return ratio, z


def test_lossy_wigner_pair_bar_is_calibrated():
    """<X_1>(1) of the perfbench wigner-loss run: two components with
    cross-Kerr and four loss channels, 10,000 trajectories."""
    chi = [[0.01, 0.005], [0.005, 0.01]]
    channels = [LossChannel((1, 0), 0.05), LossChannel((0, 1), 0.05),
                LossChannel((2, 0), 0.002), LossChannel((1, 1), 0.002)]
    times = np.linspace(0.0, 1.0, 11)

    def run(seed):
        result = run_wigner_x([3.0, 3.0], chi, times, 10_000, seed, 0.01, channels=channels)
        return result.mean("X")[-1].real, result.error("X")[-1]

    ratio, _ = _calibration("lossy Wigner <X_1>(1)", [run(seed) for seed in SEEDS])
    assert 0.9 <= ratio <= 1.1


def test_forward_plusp_pair_bar_is_calibrated():
    """Re <X>(0.5) of a forward +P Kerr run at acceptance criterion 2's
    inputs, 4,000 trajectories.  Its bar is the bar on Re X alone."""
    alpha0, chi = 10.0, 0.01
    exact = kerr_oracle([alpha0], [[chi]], 0.5)["a"][0].real

    def run(seed):
        result = run_kerr_plusp({"kind": "coherent", "alpha": [alpha0]}, chi, np.linspace(0.0, 0.5, 21),
                                4000, seed, 0.0025)
        return result.mean("X")[-1].real, result.error("X")[-1]

    ratio, z = _calibration("forward +P Re <X>(0.5)", [run(seed) for seed in SEEDS], exact)
    assert 0.9 <= ratio <= 1.1
    assert np.abs(z).max() <= 4.5


def test_paired_reversal_bar_is_calibrated():
    """Re <X>(2 tau_r) of the +P time reversal at acceptance criterion 1's
    inputs, 4,000 trajectories, against its start Re alpha0 = 10.  The
    trajectory spread grows after the reversal (`error_growth`) at every
    seed."""
    reports = [time_reversal_test(10.0, 0.01, 0.5, 4000, seed=seed, dt=0.002) for seed in SEEDS]
    runs = [(r.ensemble.mean("X")[-1].real, r.residual_bar) for r in reports]
    ratio, _ = _calibration("paired +P reversal Re <X>(1)", runs, exact=10.0)
    assert 0.9 <= ratio <= 1.1
    assert all(r.error_growth for r in reports)
