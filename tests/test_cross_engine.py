"""Engines checked against each other on one observable, not only against
their own oracle."""

import numpy as np

from qphase.fock import kerr_oracle
from qphase.plusp import run_kerr_plusp
from qphase.wigner import run_wigner_x

# A one-mode Kerr state inside the truncated-Wigner window:
# chi nbar t <= 0.18 at t = 2.  The seed was fixed once, before the first run.
ALPHA0, CHI, SEED, TRAJECTORIES = 3.0, 0.01, 19, 4000
TIMES = np.linspace(0.0, 2.0, 11)


def test_plusp_and_wigner_agree_on_the_kerr_mean():
    """Re <a>(t) from +P and from truncated Wigner: each within 4 of its
    own bars of the closed-form Kerr mean, and the two within 4 combined
    bars of each other, at every time."""
    plusp = run_kerr_plusp({"kind": "coherent", "alpha": [ALPHA0]}, CHI, TIMES, TRAJECTORIES, SEED, 0.01)
    wigner = run_wigner_x([ALPHA0], [[CHI]], TIMES, TRAJECTORIES, SEED, 0.01)
    exact = np.array([kerr_oracle([ALPHA0], [[CHI]], t)["a"][0].real for t in TIMES])
    assert plusp.diverged == wigner.diverged == 0
    means, bars = [], []
    for result in (plusp, wigner):
        mean, bar = result.mean("X").real, result.error("X")
        assert np.all(np.abs(mean - exact) <= 4.0 * bar), (mean - exact) / bar
        means.append(mean)
        bars.append(bar)
    combined = np.hypot(*bars)
    assert np.all(np.abs(means[0] - means[1]) <= 4.0 * combined), (means[0] - means[1]) / combined
