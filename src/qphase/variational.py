"""Variational superposition-of-coherent-states ("multiverse") engine.

The trial state is an unnormalized sum of Bargmann coherent kets,

    |Psi> = sum_m exp(alpha_0^(m)) |alpha_1^(m), ..., alpha_M^(m)>,

with overlaps rho^(mn) = exp[conj(alpha_0^(m)) + alpha_0^(n)
+ sum_{k>0} conj(alpha_k^(m)) alpha_k^(n)].  Time evolution follows the
McLachlan variational principle: i V dX/dt = H with the Gram matrix V
and Hamiltonian vector built from the pairwise normal-ordered symbols of
the paper's nonlinear (Kerr) oscillator, in closed form.  V turns
singular where components coincide, so the equation integrated is the
regularized dX/dt = -i T_k H, with T_k k steps of iterated Tikhonov on
V (Hanke & Groetsch, J. Optim. Theory Appl. 98, 37, 1998):
``tikhonov_solve`` applies it, and ``propagate`` integrates it to a
tolerance with Dormand-Prince 5(4) steps under error control.
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


def tikhonov_solve(v: np.ndarray, h_vec: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """T_k h: k = ``iters`` steps of iterated Tikhonov on the Gram matrix,

        y <- y + (V + i lam)^-1 (h - V y),  from y = 0,

    which filters each eigenvalue s of the Hermitian V to
    (1 - (i lam / (s + i lam))^k) / s: the exact inverse where s >> lam,
    finite where coinciding components make V singular.  V + i lam is
    inverted once (numpy has no LU factor to keep) and the k refinements
    are matrix-vector products.
    """
    shifted = v.copy()
    shifted.flat[:: v.shape[0] + 1] += 1j * lam
    inverse = np.linalg.inv(shifted)
    y = inverse @ h_vec
    for _ in range(iters - 1):
        y += inverse @ (h_vec - v @ y)
    return y


# Dormand & Prince RK5(4)7FSAL (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2): row i gives stage i's input from the slopes before it; the
# last row holds the 5th-order weights, so the last slope starts the next
# step.  _DP_E is their difference from the embedded 4th-order weights.
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# step-size control: safety factor and the bounds on one step's change
_SAFETY, _SHRINK_MAX, _GROW_MAX = 0.9, 0.2, 10.0
# a rejected step below this fraction of the end time fails the run
_MIN_STEP_FRACTION = 1e-12


def propagate(
    state: VariationalState,
    ham: KerrHamiltonian,
    dt: float,
    n_steps: int,
    lam: float = 1e-4,
    iters: int = 4,
    record_every: int = 1,
    rtol: float = 1e-8,
    stats: dict | None = None,
):
    """Integrate dX/dt = -i T_k H from 0 to ``dt * n_steps`` to ``rtol``.

    V and H come from ``variational_system`` and T_k is ``tikhonov_solve``
    with ``lam`` and k = ``iters``: one call of each per right-hand-side
    evaluation.  A Dormand-Prince 5(4) step is accepted when its embedded
    error, in units of rtol (1 + |X|) per parameter, has an rms of at most
    1, and the next step follows from that error (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4); a non-finite trial counts as too large
    an error.  Steps are cut to land on each record time, every
    ``record_every`` multiple of ``dt`` and the end time, so dt sets the
    record grid, not the step.  A rejected step below 1e-12 of the end
    time raises ``FloatingPointError`` naming t and that step.  ``stats``,
    if given, receives ``rhs_evaluations``, ``steps_accepted``,
    ``steps_rejected`` and ``smallest_step`` (the smallest accepted, inf
    when no step is taken).  Returns (times, states) at 0 and at every
    record time.
    """
    members, modes = state.members, state.modes
    counts = {"rhs_evaluations": 0, "steps_accepted": 0, "steps_rejected": 0, "smallest_step": math.inf}

    def rhs(x):
        counts["rhs_evaluations"] += 1
        grid = x.reshape(members, modes + 1)
        v, h_vec = variational_system(VariationalState(alpha0=grid[:, 0], amps=grid[:, 1:]), ham)
        return -1j * tikhonov_solve(v, h_vec, lam, iters)

    def rms(values, scale):
        return math.sqrt(np.mean(np.abs(values / scale) ** 2))

    x = state.pack()
    slopes = np.empty((7, x.size), dtype=complex)
    floor = _MIN_STEP_FRACTION * n_steps * dt
    times, states = [0.0], [VariationalState.unpack(x, members, modes)]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is rejected
        slopes[0] = rhs(x)
        # the starting step (ibid.): a first guess from |X| and |dX/dt|, then
        # one from dX/dt's change over an Euler step of that guess; the
        # comparisons send a NaN to the fallbacks
        scale = rtol * (1.0 + np.abs(x))
        d0, d1 = rms(x, scale), rms(slopes[0], scale)
        h = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
        d2 = rms(rhs(x + h * slopes[0]) - slopes[0], scale) / h
        d = max(d1, d2)
        h = min(100 * h, (0.01 / d) ** 0.2 if d > 1e-15 else max(1e-6, 1e-3 * h))
        t, rejected = 0.0, False
        for k in [*range(record_every, n_steps, record_every), n_steps] if n_steps else []:
            target = k * dt
            while t < target:
                remaining = target - t
                landing = h >= remaining
                # two even steps rather than a long one and a sliver
                h = remaining if landing else min(h, 0.5 * remaining)
                for i in range(1, 7):
                    trial = x + h * (_DP_A[i, :i] @ slopes[:i])
                    try:
                        slopes[i] = rhs(trial)
                    except np.linalg.LinAlgError:  # V + i lam exactly singular: a non-finite trial
                        slopes[i:] = np.nan
                        break
                scale = rtol * (1.0 + np.maximum(np.abs(x), np.abs(trial)))
                error = rms(h * (_DP_E @ slopes), scale)
                if error <= 1.0:
                    counts["steps_accepted"] += 1
                    counts["smallest_step"] = min(counts["smallest_step"], h)
                    x, t = trial, target if landing else t + h
                    slopes[0] = slopes[6]
                    # no growth straight after a rejection (ibid., II.4)
                    grow = 1.0 if rejected else _GROW_MAX
                    h *= min(grow, _SAFETY * error**-0.2) if error else grow
                    rejected = False
                else:
                    counts["steps_rejected"] += 1
                    tried, rejected = h, True
                    # a NaN error, from a non-finite trial, shrinks the most
                    h *= max(_SHRINK_MAX, _SAFETY * error**-0.2) if error < math.inf else _SHRINK_MAX
                    if h < floor:
                        raise FloatingPointError(
                            f"variational step failed at t={t:.6g}: the error stays above rtol={rtol:g}"
                            f" down to step {tried:.3g}"
                        )
            times.append(target)
            states.append(VariationalState.unpack(x, members, modes))
    if stats is not None:
        stats.update(counts)
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
