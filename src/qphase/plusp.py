"""Positive-P stochastic evolution in the doubled phase space.

Trajectories carry independent complex vectors (alpha, beta) and evolve
in the identity gauge, so every trajectory has unit weight.  Initial
conditions come from the constructive canonical distribution
P ~ exp(-|alpha - beta*|^2 / 4) <mu|rho|mu>, mu = (alpha + beta*)/2,
and normally ordered operator moments are plain averages of
beta...alpha products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastic import (
    EnsembleResult,
    MomentAccumulator,
    noise_block,
    run_ensemble,
)

__all__ = [
    "PlusPEnsemble",
    "sample_canonical",
    "canonical_sampler",
    "KerrPlusP",
    "normally_ordered_moment",
    "TimeReversalReport",
    "time_reversal_test",
]


@dataclass
class PlusPEnsemble:
    """Phase-space samples: alpha, beta of shape (n_traj, modes)."""

    alpha: np.ndarray
    beta: np.ndarray

    @property
    def trajectories(self) -> int:
        return self.alpha.shape[0]


def _husimi_samples(state: dict, gen: np.random.Generator, n: int, modes: int) -> np.ndarray:
    """Draw mu from the Husimi function of a supported state family."""
    kind = state["kind"]
    if kind == "coherent":
        alpha0 = np.atleast_1d(np.asarray(state["alpha"], dtype=complex))
        if alpha0.size != modes:
            raise ValueError("coherent amplitude length must equal mode count")
        noise = gen.standard_normal((n, modes, 2))
        return alpha0 + (noise[..., 0] + 1j * noise[..., 1]) / math.sqrt(2.0)
    if kind == "thermal":
        nbar = np.atleast_1d(np.asarray(state["nbar"], dtype=float))
        if nbar.size != modes:
            raise ValueError("one nbar per mode required")
        noise = gen.standard_normal((n, modes, 2))
        width = np.sqrt((1.0 + nbar) / 2.0)
        return width * (noise[..., 0] + 1j * noise[..., 1])
    if kind == "fock":
        numbers = np.atleast_1d(np.asarray(state["n"], dtype=int))
        if numbers.size != modes:
            raise ValueError("one occupation per mode required")
        radius_sq = gen.gamma(shape=numbers + 1.0, size=(n, modes))
        phases = gen.uniform(0.0, 2.0 * math.pi, size=(n, modes))
        return np.sqrt(radius_sq) * np.exp(1j * phases)
    raise ValueError(f"unsupported state family {kind!r}")


def _mode_count(state: dict) -> int:
    return len(np.atleast_1d(state.get("alpha", state.get("nbar", state.get("n", [0])))))


def sample_canonical(
    state: dict, seed: int, trajectories: int, width: str = "canonical"
) -> PlusPEnsemble:
    """Sample (alpha, beta) from the canonical positive-P distribution.

    ``width="delta"`` places every trajectory at the classical point
    (only valid for coherent states, where the delta distribution is
    also an exact positive-P representation).
    """
    modes = _mode_count(state)
    if width == "delta":
        if state["kind"] != "coherent":
            raise ValueError("delta width only represents coherent states")
        alpha0 = np.atleast_1d(np.asarray(state["alpha"], dtype=complex))
        alpha = np.tile(alpha0, (trajectories, 1))
        return PlusPEnsemble(alpha, alpha.conj().copy())
    if width != "canonical":
        raise ValueError(f"unknown canonical width {width!r}")
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0x9E3779B9], dtype=np.uint64)))
    mu = _husimi_samples(state, gen, trajectories, modes)
    # the Gaussian factor exp(-|gamma|^2/4) has <|gamma|^2> = 4 per mode
    noise = gen.standard_normal((trajectories, modes, 2))
    gamma = math.sqrt(2.0) * (noise[..., 0] + 1j * noise[..., 1])
    alpha = mu + 0.5 * gamma
    beta = np.conj(mu - 0.5 * gamma)
    return PlusPEnsemble(alpha, beta)


def canonical_sampler(state: dict, width: str = "canonical"):
    """Sampler producing the packed (n, 2M) array used by the stepper."""

    def sampler(seed, n):
        ens = sample_canonical(state, seed, n, width)
        return np.concatenate([ens.alpha, ens.beta], axis=1)

    return sampler


@dataclass
class KerrPlusP:
    """Drift + noise for the single-component Bose gas +P equations.

    i d(alpha_m)/dt = omega_mn alpha_n + [chi alpha_m beta_m
                        + sqrt(i chi) xi1_m] alpha_m
    -i d(beta_m)/dt = omega_mn beta_n + [chi alpha_m beta_m
                        + sqrt(-i chi) xi2_m] beta_m

    with 2M real noises of variance delta_mm' / dt per step.  These are
    Ito equations; the model integrates them through the midpoint scheme
    by adding the Ito->Stratonovich drift correction +(i chi / 2) alpha
    (and -(i chi / 2) beta).
    From ``reverse_step`` on, the Hamiltonian changes sign (chi and
    omega are negated), which runs the dynamics backwards in time.
    """

    chi: float
    modes: int = 1
    omega: np.ndarray = None  # (M, M) single-particle matrix or None
    seed: int = 0
    reverse_step: int = None  # flip sign at this step index, if set

    def noise(self, step_index: int, n_traj: int, dt: float) -> np.ndarray:
        """The 2M real noises of a step: xi1 in columns :M, xi2 in M:."""
        raw = noise_block(self.seed, step_index, n_traj, 2 * self.modes)
        return raw * (1.0 / math.sqrt(dt))

    def derivative(self, state: np.ndarray, step_index: int, noise: np.ndarray) -> np.ndarray:
        m = self.modes
        alpha = state[:, :m]
        beta = state[:, m:]
        sign = 1.0
        if self.reverse_step is not None and step_index >= self.reverse_step:
            sign = -1.0
        chi = sign * self.chi
        xi1 = noise[:, :m]
        xi2 = noise[:, m:]
        root_pos = np.sqrt(1j * chi + 0j)
        root_neg = np.sqrt(-1j * chi + 0j)
        cross = chi * alpha * beta
        d_alpha = -1j * (cross + root_pos * xi1) * alpha
        d_beta = +1j * (cross + root_neg * xi2) * beta
        if self.omega is not None:
            omega = sign * np.asarray(self.omega)
            d_alpha += -1j * alpha @ omega.T
            d_beta += +1j * beta @ omega.T
        d_alpha += 0.5j * chi * alpha
        d_beta += -0.5j * chi * beta
        return np.concatenate([d_alpha, d_beta], axis=1)


def normally_ordered_moment(
    ensemble: PlusPEnsemble, creation_modes, annihilation_modes
) -> tuple[complex, float]:
    """<a_m^dag ... a_n> = mean of beta_m ... alpha_n products."""
    vals = np.ones(ensemble.trajectories, dtype=complex)
    for m in creation_modes:
        vals = vals * ensemble.beta[:, m]
    for m in annihilation_modes:
        vals = vals * ensemble.alpha[:, m]
    acc = MomentAccumulator()
    acc.add(vals)
    return acc.mean, acc.error


def run_kerr_plusp(
    state: dict,
    chi: float,
    times,
    trajectory_count: int,
    seed: int,
    dt: float,
    omega=None,
    width: str = "canonical",
    divergence_ceiling: float = 1e6,
    reverse_at: float = None,
    extra_observables: dict = None,
) -> EnsembleResult:
    modes = _mode_count(state)
    reverse_step = None
    if reverse_at is not None:
        reverse_step = int(round(reverse_at / dt))
        if not math.isclose(reverse_step * dt, reverse_at, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("reversal time must lie on the step grid")
    model = KerrPlusP(
        chi=chi,
        modes=modes,
        omega=omega,
        seed=seed,
        reverse_step=reverse_step,
    )
    # X = <a + a^dag>/2 of the first mode, from alpha_0 and beta_0
    observables = {"X": lambda s: 0.5 * (s[:, 0] + s[:, modes])}
    if extra_observables:
        observables.update(extra_observables)
    return run_ensemble(
        canonical_sampler(state, width),
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
    times: np.ndarray
    x_mean: np.ndarray
    x_error: np.ndarray
    initial_x: float
    recovery_residual: float
    residual_bar: float
    error_growth: bool
    diverged: int
    inconclusive: bool


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

    Reports the <X> trace with CLT bars and the recovery residual at
    twice the reversal time.  If the sampling bar at the endpoint
    exceeds ``error_ceiling`` the test is inconclusive, not failed.
    """
    total = 2.0 * reversal_time
    times = np.linspace(0.0, total, n_points)
    # snap measurement times onto the step grid
    times = np.round(times / dt) * dt
    times[0], times[-1] = 0.0, total
    result = run_kerr_plusp(
        {"kind": "coherent", "alpha": [alpha0]},
        chi,
        times,
        trajectory_count,
        seed,
        dt,
        width=width,
        reverse_at=reversal_time,
    )
    x_mean = result.mean("X").real
    x_err = result.error("X")
    initial_x = float(np.real(alpha0))
    residual = abs(x_mean[-1] - initial_x)
    bar_end = float(x_err[-1])
    idx_before = int(np.argmin(np.abs(times - 0.8 * reversal_time)))
    return TimeReversalReport(
        times=times,
        x_mean=x_mean,
        x_error=x_err,
        initial_x=initial_x,
        recovery_residual=residual,
        residual_bar=bar_end,
        error_growth=bool(x_err[-1] > x_err[idx_before]),
        diverged=result.diverged,
        inconclusive=bar_end > error_ceiling,
    )
