"""Engines checked against each other on one observable, not only against
their own oracle."""

import numpy as np

from qphase.fock import kerr_oracle
from qphase.plusp import run_kerr_plusp
from qphase.variational import expectation, kerr_hamiltonian, propagate, ring_initial_state
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


def test_variational_agrees_with_the_kerr_mean_and_plusp():
    """<a>(t) of 16 coherent components on a ring of radius 0.02 (the
    ring shifts <a>(0) by about radius^2 |alpha| / 2 = 6e-4): within 1e-2
    of the closed-form Kerr mean at every time, about twice what one
    coherent state (mean field) misses by at t = 2, |alpha|^3 chi^2 t^2 / 2
    = 5.4e-3; and Re <a> within 4 +P bars of the +P mean at t > 0.  At
    t = 0 every antithetic pair mean of the +P X is alpha0, so its bar is
    zero to rounding and cannot cover the ring's offset; there the +P mean
    is alpha0 itself.  Components, radius and tolerances were fixed before
    the first run."""
    state = ring_initial_state([ALPHA0], 16, radius=0.02)
    times, states = propagate(state, kerr_hamiltonian(CHI, modes=1), 0.01, 200, record_every=20)
    assert np.allclose(times, TIMES)
    mean = np.array([expectation(st, (), (0,)) for st in states])
    exact = np.array([kerr_oracle([ALPHA0], [[CHI]], t)["a"][0] for t in TIMES])
    assert np.all(np.abs(mean - exact) <= 1e-2), np.abs(mean - exact)
    plusp = run_kerr_plusp({"kind": "coherent", "alpha": [ALPHA0]}, CHI, TIMES, TRAJECTORIES, SEED, 0.01)
    mean_p, bar = plusp.mean("X").real, plusp.error("X")
    assert abs(mean_p[0] - ALPHA0) <= 1e-12 and bar[0] <= 1e-12
    z = (mean.real - mean_p)[1:] / bar[1:]
    assert np.all(np.abs(z) <= 4.0), z
