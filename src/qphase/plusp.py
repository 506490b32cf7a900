"""Positive-P stochastic evolution in the doubled phase space.

Trajectories carry independent complex vectors (alpha, beta) and evolve
in the identity gauge, so every trajectory has unit weight.  Initial
conditions come from the constructive canonical distribution
P ~ exp(-|alpha - beta*|^2 / 4) <mu|rho|mu>, mu = (alpha + beta*)/2,
and normally ordered operator moments are plain averages of
beta...alpha products.  Each step's noise and Ito->Stratonovich
correction are folded into rate columns when the noise is drawn, so the
drift is a few whole-array operations written in place.
`time_reversal_test` records at `reversal_schedule`'s times, checked by
`stochastic.schedule_steps`, and its report keeps the run's
`EnsembleResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastic import (
    CANONICAL_WIDTHS,
    FOCK_PHASES,
    FOCK_RADII,
    HUSIMI_MEANS,
    EnsembleResult,
    draw_rows,
    noise_block,
    run_ensemble,
    schedule_steps,
)

__all__ = [
    "sample_canonical",
    "KerrPlusP",
    "TimeReversalReport",
    "reversal_schedule",
    "time_reversal_test",
]


def _complex_normals(seed: int, domain: int, n: int, modes: int) -> np.ndarray:
    """(n, modes) complex normals re + i im, each part standard normal."""
    return draw_rows(seed, domain, 0, n, lambda gen, k: gen.standard_normal((k, 2 * modes))).view(complex)


def _husimi_samples(state: dict, seed: int, n: int, modes: int) -> np.ndarray:
    """Draw mu from the Husimi function of a supported state family."""
    kind = state["kind"]
    if kind == "coherent":
        alpha0 = np.atleast_1d(np.asarray(state["alpha"], dtype=complex))
        if alpha0.size != modes:
            raise ValueError("coherent amplitude length must equal mode count")
        return alpha0 + _complex_normals(seed, HUSIMI_MEANS, n, modes) / math.sqrt(2.0)
    if kind == "thermal":
        nbar = np.atleast_1d(np.asarray(state["nbar"], dtype=float))
        if nbar.size != modes:
            raise ValueError("one nbar per mode required")
        width = np.sqrt((1.0 + nbar) / 2.0)
        return width * _complex_normals(seed, HUSIMI_MEANS, n, modes)
    if kind == "fock":
        numbers = np.atleast_1d(np.asarray(state["n"], dtype=int))
        if numbers.size != modes:
            raise ValueError("one occupation per mode required")
        radius_sq = draw_rows(
            seed, FOCK_RADII, 0, n, lambda gen, k: gen.gamma(numbers + 1.0, size=(k, modes))
        )
        phases = draw_rows(
            seed, FOCK_PHASES, 0, n, lambda gen, k: gen.uniform(0.0, 2.0 * math.pi, size=(k, modes))
        )
        return np.sqrt(radius_sq) * np.exp(1j * phases)
    raise ValueError(f"unsupported state family {kind!r}")


def _mode_count(state: dict) -> int:
    return len(np.atleast_1d(state.get("alpha", state.get("nbar", state.get("n", [0])))))


def sample_canonical(
    state: dict, seed: int, trajectories: int, width: str = "canonical"
) -> np.ndarray:
    """Sample (alpha, beta) from the canonical positive-P distribution,
    packed as the (trajectories, 2M) array [alpha | beta] the stepper uses.
    The array is column-contiguous (Fortran order), so each mode column
    of alpha and beta is one contiguous run.

    ``width="delta"`` places every trajectory at the classical point
    (only valid for coherent states, where the delta distribution is
    also an exact positive-P representation).
    """
    modes = _mode_count(state)
    if width == "delta" and state["kind"] != "coherent":
        raise ValueError("delta width only represents coherent states")
    if width not in ("delta", "canonical"):
        raise ValueError(f"unknown canonical width {width!r}")
    packed = np.empty((trajectories, 2 * modes), dtype=complex, order="F")
    alpha, beta = packed[:, :modes], packed[:, modes:]
    if width == "delta":
        alpha[...] = np.atleast_1d(np.asarray(state["alpha"], dtype=complex))
        np.conj(alpha, out=beta)
        return packed
    mu = _husimi_samples(state, seed, trajectories, modes)
    # the Gaussian factor exp(-|gamma|^2/4) has <|gamma|^2> = 4 per mode
    gamma = math.sqrt(2.0) * _complex_normals(seed, CANONICAL_WIDTHS, trajectories, modes)
    np.add(mu, 0.5 * gamma, out=alpha)
    np.conj(mu - 0.5 * gamma, out=beta)
    return packed


@dataclass
class KerrPlusP:
    """Drift + noise for the single-component Bose gas +P equations.

    i d(alpha_m)/dt = [chi alpha_m beta_m + sqrt(i chi) xi1_m] alpha_m
    -i d(beta_m)/dt = [chi alpha_m beta_m + sqrt(-i chi) xi2_m] beta_m

    with 2M real noises of variance delta_mm' / dt per step.  These are
    Ito equations; the model integrates them through the midpoint scheme
    by adding the Ito->Stratonovich drift correction +(i chi / 2) alpha
    (and -(i chi / 2) beta).
    From ``reverse_step`` on, the Hamiltonian changes sign (chi is
    negated), which runs the dynamics backwards in time.

    ``noise`` folds each step's noise and Stratonovich correction into
    rate columns r, so the drift is (-+i chi alpha beta + r) (alpha, beta):
    a few whole-array operations written into ``out``.  Nothing is
    compiled from chi or ``reverse_step``, so changing a field changes
    the next step.
    """

    chi: float
    modes: int = 1
    seed: int = 0
    reverse_step: int = None  # flip sign at this step index, if set
    order = "F"  # memory layout evolve steps the state in: the sampler's

    def _sign(self, step_index: int) -> float:
        return -1.0 if self.reverse_step is not None and step_index >= self.reverse_step else 1.0

    def noise(self, step_index: int, n_traj: int, dt: float) -> np.ndarray:
        """This step's rate columns, laid out column-contiguous like the
        state: -i sqrt(i chi) xi1 + i chi / 2 in columns :M and
        i sqrt(-i chi) xi2 - i chi / 2 in M:, with the step's sign on chi
        and 2M real two-point noises xi of variance 1/dt (see
        `stochastic.noise_block`)."""
        xi = noise_block(self.seed, step_index, n_traj, 2 * self.modes)
        xi *= 1.0 / math.sqrt(dt)
        return self.rates(xi, step_index)

    def rates(self, xi: np.ndarray, step_index: int) -> np.ndarray:
        """Rate columns (see ``noise``) for real noises xi already scaled
        by 1/sqrt(dt); zero xi gives the noise-free drift."""
        m = self.modes
        chi = self._sign(step_index) * self.chi
        rates = np.empty(xi.shape, dtype=complex, order="F")
        np.multiply(xi[:, :m], -1j * np.sqrt(1j * chi + 0j), out=rates[:, :m])
        rates[:, :m] += 0.5j * chi
        np.multiply(xi[:, m:], 1j * np.sqrt(-1j * chi + 0j), out=rates[:, m:])
        rates[:, m:] -= 0.5j * chi
        return rates

    def derivative(
        self, state: np.ndarray, step_index: int, noise: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        m = self.modes
        chi = self._sign(step_index) * self.chi
        np.multiply(state[:, :m], state[:, m:], out=out[:, :m])  # alpha beta
        np.multiply(out[:, :m], 1j * chi, out=out[:, m:])
        out[:, :m] *= -1j * chi
        out += noise
        out *= state
        return out


def run_kerr_plusp(
    state: dict,
    chi: float,
    times,
    trajectory_count: int,
    seed: int,
    dt: float,
    width: str = "canonical",
    divergence_ceiling: float = 1e6,
    reverse_at: float = None,
    extra_observables: dict = None,
) -> EnsembleResult:
    """<X> of the first mode (and any `extra_observables`) over `times`;
    from `reverse_at`, a time after 0 on the dt grid, the Hamiltonian's
    sign is flipped."""
    modes = _mode_count(state)
    reverse_step = None if reverse_at is None else int(schedule_steps((0.0, reverse_at), dt)[1])
    model = KerrPlusP(chi=chi, modes=modes, seed=seed, reverse_step=reverse_step)
    # X = <a + a^dag>/2 of the first mode, from alpha_0 and beta_0
    observables = {"X": lambda s: 0.5 * (s[:, 0] + s[:, modes])}
    if extra_observables:
        observables.update(extra_observables)
    return run_ensemble(
        lambda sample_seed, n: sample_canonical(state, sample_seed, n, width),
        model,
        observables,
        trajectory_count,
        times,
        dt,
        seed,
        divergence_ceiling=divergence_ceiling,
    )


@dataclass
class TimeReversalReport:
    ensemble: EnsembleResult  # the run: <X> ("X") with bars and dead counts per time
    initial_x: float
    recovery_residual: float
    residual_bar: float
    error_growth: bool
    diverged: int
    inconclusive: bool


def reversal_schedule(reversal_time: float, dt: float, n_points: int) -> np.ndarray:
    """The times `time_reversal_test` records: `n_points` evenly spaced
    over [0, 2 reversal_time], each snapped to the dt grid."""
    total = 2.0 * reversal_time
    times = np.round(np.linspace(0.0, total, n_points) / dt) * dt
    times[0], times[-1] = 0.0, total
    return times


def time_reversal_test(
    alpha0: complex,
    chi: float,
    reversal_time: float,
    trajectory_count: int,
    seed: int = 1234,
    dt: float = 0.002,
    n_points: int = 51,
    width: str = "canonical",
    error_ceiling: float = 0.5,
) -> TimeReversalReport:
    """Evolve to the reversal time, flip the Hamiltonian sign, return.

    Reports the run, whose <X> trace carries CLT bars, and the recovery
    residual at twice the reversal time.  The reversal time lies on the
    dt grid and the schedule's points on distinct steps (see
    `schedule_steps`).  If the sampling bar at the endpoint exceeds
    ``error_ceiling`` the test is inconclusive, not failed.
    """
    result = run_kerr_plusp(
        {"kind": "coherent", "alpha": [alpha0]},
        chi,
        reversal_schedule(reversal_time, dt, n_points),
        trajectory_count,
        seed,
        dt,
        width=width,
        reverse_at=reversal_time,
    )
    x_err = result.error("X")
    initial_x = float(np.real(alpha0))
    bar_end = float(x_err[-1])
    idx_before = int(np.argmin(np.abs(result.times - 0.8 * reversal_time)))
    return TimeReversalReport(
        ensemble=result,
        initial_x=initial_x,
        recovery_residual=abs(result.mean("X").real[-1] - initial_x),
        residual_bar=bar_end,
        error_growth=bool(x_err[-1] > x_err[idx_before]),
        diverged=result.diverged,
        inconclusive=bar_end > error_ceiling,
    )
