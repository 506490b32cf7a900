"""Variational superposition-of-coherent-states ("multiverse") engine.

The trial state is an unnormalized sum of Bargmann coherent kets,

    |Psi> = sum_m exp(alpha_0^(m)) |alpha_1^(m), ..., alpha_M^(m)>,

with overlaps rho^(mn) = exp[conj(alpha_0^(m)) + alpha_0^(n)
+ sum_{k>0} conj(alpha_k^(m)) alpha_k^(n)].  Time evolution follows the
McLachlan variational principle: i V dX/dt = H with the Gram matrix V
and Hamiltonian vector built from the pairwise normal-ordered symbols of
the paper's nonlinear (Kerr) oscillator, in closed form.  The Tikhonov-
regularized solves run in the iterated midpoint scheme of the stochastic
engines; ``propagate`` refills one midpoint buffer per run in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VariationalState",
    "KerrHamiltonian",
    "kerr_hamiltonian",
    "ring_initial_state",
    "overlap_matrix",
    "variational_system",
    "tikhonov_solve",
    "propagate",
    "expectation",
    "state_norm",
    "energy",
]


@dataclass
class VariationalState:
    """alpha0: (N,) log-weights; amps: (N, M) coherent amplitudes."""

    alpha0: np.ndarray
    amps: np.ndarray

    @property
    def members(self) -> int:
        return self.alpha0.size

    @property
    def modes(self) -> int:
        return self.amps.shape[1]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.alpha0[:, None], self.amps], axis=1).ravel()

    @classmethod
    def unpack(cls, x: np.ndarray, members: int, modes: int) -> "VariationalState":
        grid = x.reshape(members, modes + 1)
        return cls(alpha0=grid[:, 0].copy(), amps=grid[:, 1:].copy())


def ring_initial_state(alpha, members: int, radius: float = 0.1) -> VariationalState:
    """Members on a small ring around a target coherent state.

    Each ket is weighted so the superposition is normalized and
    reproduces the coherent state up to O(radius); the spread gives the
    variational manifold room to develop genuine superpositions.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    phases = np.exp(2j * math.pi * np.arange(members) / members)
    amps = np.tile(alpha, (members, 1))
    amps[:, 0] = amps[:, 0] + radius * phases
    alpha0 = -0.5 * np.sum(np.abs(amps) ** 2, axis=1) - math.log(members)
    return VariationalState(alpha0=alpha0.astype(complex), amps=amps)


@dataclass(frozen=True, eq=False)
class KerrHamiltonian:
    """H = sum_k omega_k adag_k a_k + (chi/2) sum_k adag_k^2 a_k^2, as built by
    ``kerr_hamiltonian``; ``omega`` is complex and read-only, one per mode."""

    chi: float
    omega: np.ndarray

    def symbols(self, bra_conj: np.ndarray, ket: np.ndarray) -> np.ndarray:
        """(N, M+1, N) stack over all pairs: H^(mn) = sum_k z_k (omega_k + chi z_k / 2),
        then d H^(mn) / d conj(alpha_k^(m)) = alpha_k^(n) (omega_k + chi z_k) for each
        mode k, where z_k = conj(alpha_k^(m)) alpha_k^(n); bra_conj, ket (N, M)."""
        if ket.shape[1] != self.omega.size:
            raise ValueError(f"the Hamiltonian acts on {self.omega.size} modes, the state has {ket.shape[1]}")
        z = bra_conj[:, :, None] * ket.T  # (N, M, N)
        rate = self.chi * z
        rate += self.omega[:, None]  # omega_k + chi z_k
        grads = ket.T * rate
        rate -= (0.5 * self.chi) * z  # omega_k + chi z_k / 2
        rate *= z
        return np.concatenate([rate.sum(axis=1, keepdims=True), grads], axis=1)


def kerr_hamiltonian(chi: float, modes: int = 1, omega=None) -> KerrHamiltonian:
    """The Kerr oscillator on ``modes`` modes; omega (one per mode) defaults to 0."""
    omega = np.zeros(modes, dtype=complex) if omega is None else np.atleast_1d(omega).astype(complex)
    if omega.shape != (modes,):
        raise ValueError(f"omega needs one value per mode for {modes} modes, not {omega.shape}")
    omega.flags.writeable = False
    return KerrHamiltonian(chi, omega)


def overlap_matrix(state: VariationalState) -> np.ndarray:
    rho = state.amps.conj() @ state.amps.T
    rho += state.alpha0.conj()[:, None]
    rho += state.alpha0
    return np.exp(rho, out=rho)


@functools.lru_cache(maxsize=None)
def _layout(members: int, modes: int):
    """variational_system's fixed arrays: flat indices gathering V's (m,l),(n,k)
    layout from outer(conj t, t), indexed (m,k),(n,l), and from rho; the mask
    delta_{lk}(1 - delta_{l0}); the columns (t, delta_{1l}, ...), t left to fill."""
    r = modes + 1
    m, l, n, k = np.indices((members, r, members, r)).reshape(4, members * r, members * r)
    outer = (m * r + k) * (members * r) + n * r + l
    delta = ((l == k) & (l > 0)).astype(complex)
    columns = np.repeat(np.eye(r, dtype=complex), members, axis=0)
    return outer, m * members + n, delta, columns


def variational_system(state: VariationalState, ham: KerrHamiltonian):
    """Gram matrix V and Hamiltonian vector of i V dX/dt = H_vec.

    With t^(n) = (1, alpha_1^(n), ..., alpha_M^(n)),
    V_{(m,l),(n,k)} = d^2 rho^(mn) / d conj(alpha_l^(m)) d alpha_k^(n)
                    = [delta_{lk}(1 - delta_{l0}) + conj(t_k^(m)) t_l^(n)] rho^(mn)
    H_{(m,l)} = sum_n [dH^(mn)/d conj(alpha_l^(m)) + H^(mn) t_l^(n)] rho^(mn),
    where H^(mn) does not depend on alpha_0: one product of the rows
    (H rho, dH/d conj(alpha_1) rho, ...) with the columns (t, delta_{1l}, ...).
    """
    n, m = state.members, state.modes
    dim = n * (m + 1)
    outer, rho_index, delta, fixed_columns = _layout(n, m)
    columns = fixed_columns.copy()
    tilde = columns[:n]
    tilde[:, 1:] = state.amps
    tilde_conj = tilde.conj()
    rho = overlap_matrix(state)
    v = np.multiply(tilde_conj.reshape(dim, 1), tilde.reshape(1, dim)).take(outer)
    v += delta
    v *= rho.take(rho_index)
    sym = ham.symbols(tilde_conj[:, 1:], state.amps)
    sym *= rho[:, None, :]
    return v, (sym.reshape(n, dim) @ columns).ravel()


def tikhonov_solve(v: np.ndarray, dx: np.ndarray, h_vec: np.ndarray, dt: float, shift: np.ndarray) -> np.ndarray:
    """One regularized fixed-point refinement of the midpoint equation.

    dX <- dX + [V + shift]^-1 [-i dt H/2 - V dX] with shift = i lam I;
    the shift keeps the solve finite when coinciding components make V
    singular.  ``propagate`` builds it once for all its solves.
    """
    residual = -0.5j * dt * h_vec - v @ dx
    return dx + np.linalg.solve(v + shift, residual)


# halvings of a failing step before propagate gives up
MAX_HALVINGS = 6


def propagate(
    state: VariationalState,
    ham: KerrHamiltonian,
    dt: float,
    n_steps: int,
    lam: float = 1e-4,
    iters: int = 4,
    record_every: int = 1,
):
    """Iterated-midpoint propagation; X(t + dt) = X0 + 2 dX.

    A step producing non-finite parameters is retried with a halved
    substep (up to ``MAX_HALVINGS`` times); persistent failure raises a
    ``FloatingPointError`` naming ``dt`` and the smallest substep tried.
    Returns (times, states) sampled every ``record_every`` steps.
    """
    members, modes = state.members, state.modes
    shift = 1j * lam * np.eye(members * (modes + 1))
    # the run's midpoint state: views of one buffer refilled with x + dx
    mid_x = np.empty(members * (modes + 1), dtype=complex)
    grid = mid_x.reshape(members, modes + 1)
    mid = VariationalState(alpha0=grid[:, 0], amps=grid[:, 1:])

    def one_step(x, h):
        dx = np.zeros_like(x)
        for _ in range(iters):
            np.add(x, dx, out=mid_x)
            v, h_vec = variational_system(mid, ham)
            dx = tikhonov_solve(v, dx, h_vec, h, shift)
        return x + 2.0 * dx

    def robust_step(x, h, depth=0):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                new = one_step(x, h)
        except np.linalg.LinAlgError:
            new = np.full_like(x, np.nan)
        if np.isfinite(new).all():
            return new
        if depth >= MAX_HALVINGS:
            raise FloatingPointError(
                f"variational step dt={dt:g} failed: parameters stay non-finite"
                f" down to substep {h:g}"
            )
        half = robust_step(x, h / 2, depth + 1)
        return robust_step(half, h / 2, depth + 1)

    x = state.pack()
    times = [0.0]
    states = [VariationalState.unpack(x, members, modes)]
    for step_idx in range(n_steps):
        x = robust_step(x, dt)
        if (step_idx + 1) % record_every == 0 or step_idx + 1 == n_steps:
            times.append((step_idx + 1) * dt)
            states.append(VariationalState.unpack(x, members, modes))
    return np.array(times), states


def state_norm(state: VariationalState) -> float:
    value = complex(overlap_matrix(state).sum())
    if value.real <= 0:
        raise ValueError("state norm is not positive")
    return value.real


def energy(state: VariationalState, ham: KerrHamiltonian) -> float:
    return _mean(state, ham.symbols(state.amps.conj(), state.amps)[:, 0]).real


def expectation(state: VariationalState, creation, annihilation) -> complex:
    """<Psi| prod adag_i prod a_j |Psi> / <Psi|Psi> for mode tuples."""
    if not all(0 <= k < state.modes for k in (*creation, *annihilation)):
        raise ValueError(f"mode indices {(*creation, *annihilation)} out of range for {state.modes} modes")
    bra = state.amps.conj()[:, list(creation)].prod(axis=1)
    ket = state.amps[:, list(annihilation)].prod(axis=1)
    return _mean(state, np.outer(bra, ket))


def _mean(state: VariationalState, symbol: np.ndarray) -> complex:
    rho = overlap_matrix(state)
    return complex((symbol * rho).sum() / rho.sum())
