"""Variational superposition-of-coherent-states ("multiverse") engine.

The trial state is an unnormalized sum of Bargmann coherent kets,

    |Psi> = sum_m exp(alpha_0^(m)) |alpha_1^(m), ..., alpha_M^(m)>,

with overlaps rho^(mn) = exp[conj(alpha_0^(m)) + alpha_0^(n)
+ sum_{k>0} conj(alpha_k^(m)) alpha_k^(n)].  Time evolution follows the
McLachlan variational principle: i V dX/dt = H with the Gram matrix V
and Hamiltonian vector built from pairwise normal-ordered symbols.  The
linear solves are Tikhonov-regularized and embedded in the iterated
midpoint scheme shared by the stochastic engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VariationalState",
    "PolynomialHamiltonian",
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


def ring_initial_state(
    alpha, members: int, radius: float = 0.1
) -> VariationalState:
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


@dataclass
class PolynomialHamiltonian:
    """Normal-ordered polynomial sum_t c_t prod adag_i prod a_j.

    ``terms`` is a list of (coeff, creation_modes, annihilation_modes).
    The pairwise symbol replaces adag_k -> conj(alpha_k^(m)) and
    a_k -> alpha_k^(n).  The terms are compiled once, on construction:
    the symbol's mode tuples, and per mode k the terms that create k, each
    with its coefficient times the number of k's and one k removed.
    """

    terms: list
    modes: int

    def __post_init__(self):
        self._symbol_terms = [(coeff, tuple(c), tuple(a)) for coeff, c, a in self.terms]
        self._grad_terms = {}
        for coeff, creation, annihilation in self._symbol_terms:
            for k in dict.fromkeys(creation):
                reduced = list(creation)
                reduced.remove(k)
                self._grad_terms.setdefault(k, []).append(
                    (coeff * creation.count(k), tuple(reduced), annihilation)
                )

    def symbol(self, bra_conj: np.ndarray, ket: np.ndarray) -> np.ndarray:
        """H^(mn) for all pairs; bra_conj, ket of shape (N, M)."""
        return _pair_sum(self._symbol_terms, bra_conj, ket)

    def symbol_grad(self, bra_conj: np.ndarray, ket: np.ndarray, k: int) -> np.ndarray:
        """d H^(mn) / d conj(alpha_k^(m)) for all pairs."""
        return _pair_sum(self._grad_terms.get(k, ()), bra_conj, ket)


def _pair_sum(terms, bra_conj: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """sum_t c_t prod_{k in creation} bra_conj[m, k] prod_{k in annihilation} ket[n, k].

    Each term's bra factors are multiplied on the (N,) vector before the
    ket factors broadcast it to (N, N); that is the same sequence of
    roundings per entry as multiplying them into a full (N, N) array.
    """
    n = bra_conj.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for coeff, creation, annihilation in terms:
        bra = np.full(n, coeff, dtype=complex)
        for k in creation:
            bra *= bra_conj[:, k]
        if not annihilation:
            out += bra[:, None]
            continue
        term = bra[:, None] * ket[:, annihilation[0]]
        for k in annihilation[1:]:
            term *= ket[:, k]
        out += term
    return out


def kerr_hamiltonian(chi: float, modes: int = 1, omega=None) -> PolynomialHamiltonian:
    """H = sum_k omega_k adag_k a_k + (chi/2) sum_k adag_k^2 a_k^2."""
    terms = []
    for k in range(modes):
        if omega is not None:
            terms.append((np.atleast_1d(omega)[k], (k,), (k,)))
        terms.append((0.5 * chi, (k, k), (k, k)))
    return PolynomialHamiltonian(terms=terms, modes=modes)


def overlap_matrix(state: VariationalState) -> np.ndarray:
    expo = (
        state.alpha0.conj()[:, None]
        + state.alpha0[None, :]
        + state.amps.conj() @ state.amps.T
    )
    return np.exp(expo)


def _tilde(state: VariationalState) -> np.ndarray:
    """(N, M+1) parameter derivatives of the exponent: 1 for k=0."""
    return np.concatenate(
        [np.ones((state.members, 1), dtype=complex), state.amps], axis=1
    )


def variational_system(state: VariationalState, ham: PolynomialHamiltonian):
    """Gram matrix V and Hamiltonian vector of i V dX/dt = H_vec."""
    n, m = state.members, state.modes
    rho = overlap_matrix(state)
    tilde = _tilde(state)
    bra_conj = state.amps.conj()
    ket = state.amps
    # V_{(m,l),(n,k)} = d^2 rho^(mn) / d conj(alpha_l^(m)) d alpha_k^(n)
    #               = [delta_{lk}(1 - delta_{l0})
    #                  + conj(t_k^(m)) t_l^(n)] rho^(mn)
    dim = n * (m + 1)
    v = np.einsum("mk,nl,mn->mlnk", tilde.conj(), tilde, rho)
    for k in range(1, m + 1):
        v[:, k, :, k] += rho
    v = v.reshape(dim, dim)

    # H_{(m,l)} = sum_n [dH^(mn)/d conj(alpha_l^(m)) + H^(mn) t_l^(n)] rho^(mn)
    h_sym = ham.symbol(bra_conj, ket)
    h_vec = np.zeros((n, m + 1), dtype=complex)
    h_vec[:, 0] = (h_sym * rho).sum(axis=1)
    for l in range(1, m + 1):
        grad = ham.symbol_grad(bra_conj, ket, l - 1)
        h_vec[:, l] = ((grad + h_sym * ket[:, l - 1][None, :]) * rho).sum(axis=1)
    return v, h_vec.ravel()


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
    ham: PolynomialHamiltonian,
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

    def one_step(x, h):
        dx = np.zeros_like(x)
        for _ in range(iters):
            mid = VariationalState.unpack(x + dx, members, modes)
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


def energy(state: VariationalState, ham: PolynomialHamiltonian) -> float:
    rho = overlap_matrix(state)
    h_sym = ham.symbol(state.amps.conj(), state.amps)
    return float(((h_sym * rho).sum() / rho.sum()).real)


def expectation(state: VariationalState, creation, annihilation) -> complex:
    """<Psi| prod adag_i prod a_j |Psi> / <Psi|Psi> for mode tuples."""
    rho = overlap_matrix(state)
    norm = rho.sum()
    op = np.ones_like(rho)
    for k in creation:
        op = op * state.amps.conj()[:, k][:, None]
    for k in annihilation:
        op = op * state.amps[:, k][None, :]
    return complex((op * rho).sum() / norm)
