"""Truncated Wigner engine: sampling, losses, and ordering conversions.

Fields are symmetric-ordering phase-space amplitudes phi with vacuum
half-quantum noise (<|d phi|^2> = 1/2 per mode).  Loss channels follow
the monomial-operator convention O = prod_s phi_s^{l_s} with drift
Gamma_s = kappa (dO/dphi_s)* O and a shared complex noise per channel.
Symmetric moments are converted to normally ordered ones before any
physical observable (spin moments, xi^2 squeezing) is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stochastic import (
    complex_field_noise,
    evolve,
    noise_block,
    run_ensemble,
)

__all__ = [
    "sample_wigner_coherent",
    "LossChannel",
    "WignerModel",
    "run_wigner_x",
    "evolve_snapshots",
    "WignerMoments",
    "poly_mul",
    "poly_add",
    "poly_scale",
    "spin_polynomials",
    "SqueezingResult",
    "squeezing_xi2",
]


def sample_wigner_coherent(alpha0, seed: int, trajectories: int) -> np.ndarray:
    """Coherent-state Wigner samples: alpha0 plus half-quantum noise.

    Each mode gets complex Gaussian noise with total variance 1/2
    (quadrature variance 1/4), the symmetric-ordering vacuum width.
    """
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0x57494E52], dtype=np.uint64))
    )
    noise = gen.standard_normal((trajectories, alpha0.size, 2))
    return alpha0 + 0.5 * (noise[..., 0] + 1j * noise[..., 1])


@dataclass(frozen=True)
class LossChannel:
    """Monomial loss operator O = prod_s phi_s^{l_s} at rate kappa."""

    powers: tuple
    rate: float


def _monomial(fields: np.ndarray, powers) -> np.ndarray:
    out = np.ones(fields.shape[0], dtype=complex)
    for s, l in enumerate(powers):
        if l:
            out = out * fields[:, s] ** l
    return out


def _monomial_grad(fields: np.ndarray, powers, s: int) -> np.ndarray:
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial(fields, reduced)


def _monomial_hess(fields: np.ndarray, powers, s: int, t: int) -> np.ndarray:
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial_grad(fields, reduced, t)


@dataclass
class WignerModel:
    """Drift + loss noise for a multi-component single-site Bose field.

    d phi_s/dt = -i (omega_ss' phi_s' + chi_ss' |phi_s'|^2 phi_s)
                 - sum_l Gamma_s^l + sum_l beta_s^l zeta_l

    ``omega`` is the (S, S) linear coupling matrix (Rabi coupling and
    internal energies) or None.  The loss SDEs are Ito equations; the
    model integrates them through the midpoint scheme by subtracting
    the analytic Ito->Stratonovich drift shift.
    """

    chi: np.ndarray = None  # (S, S) symmetric interaction matrix, or None
    omega: np.ndarray = None  # (S, S) linear coupling matrix, or None
    channels: tuple = ()
    # Never read (the field array sets the component count); kept because
    # the wigner-loss workload in perfbench/workloads.py passes it.
    components: int = 1
    seed: int = 0

    def noise(self, step_index: int, n_traj: int, dt: float):
        """One complex noise zeta_l per loss channel, or None without losses."""
        if not self.channels:
            return None
        raw = noise_block(self.seed, step_index, n_traj, 2 * len(self.channels))
        return complex_field_noise(raw, dt)

    def derivative(self, fields: np.ndarray, step_index: int, zeta) -> np.ndarray:
        n_comp = fields.shape[1]
        d = np.zeros_like(fields)
        if self.omega is not None:
            d += -1j * fields @ np.asarray(self.omega).T
        if self.chi is not None:
            chi = np.asarray(self.chi)
            density = np.abs(fields) ** 2
            d += -1j * (density @ chi.T) * fields
        for l, ch in enumerate(self.channels):
            mono = _monomial(fields, ch.powers)
            grads = [_monomial_grad(fields, ch.powers, s) for s in range(n_comp)]
            for s in range(n_comp):
                d[:, s] += -ch.rate * np.conj(grads[s]) * mono
                d[:, s] += math.sqrt(ch.rate) * np.conj(grads[s]) * zeta[:, l]
                # subtract the Ito->Stratonovich drift shift
                for t2 in range(n_comp):
                    hess = _monomial_hess(fields, ch.powers, s, t2)
                    d[:, s] += -0.5 * ch.rate * np.conj(hess) * grads[t2]
        return d


def run_wigner_x(
    alpha0,
    chi,
    times,
    trajectory_count: int,
    seed: int,
    dt: float,
    omega=None,
    channels=(),
):
    """Time series of <X> = Re <a> for the first component, with bars."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    model = WignerModel(
        chi=np.atleast_2d(chi) if chi is not None else None,
        omega=omega,
        channels=tuple(channels),
        components=alpha0.size,
        seed=seed,
    )
    return run_ensemble(
        lambda s, n: sample_wigner_coherent(alpha0, s, n),
        model,
        {"X": lambda f: f[:, 0].real, "n_w": lambda f: np.abs(f[:, 0]) ** 2},
        trajectory_count,
        times,
        dt,
        seed,
    )


def evolve_snapshots(
    fields: np.ndarray,
    model: WignerModel,
    dt: float,
    snapshot_steps,
) -> dict:
    """Advance fields, returning copies at the requested step indices.

    Needed for nonlinear ensemble functionals (xi^2) that cannot be
    expressed as per-trajectory means.  Each snapshot holds only the
    trajectories that have not diverged by that step.
    """
    wanted = set(int(s) for s in snapshot_steps)
    return {
        step_idx: state[alive]
        for step_idx, state, alive in evolve(fields, model, dt, max(wanted, default=0))
        if step_idx in wanted
    }


# ---------------------------------------------------------------------------
# ordering conversion: symmetric (Wigner) -> normal moments, two modes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _weyl_coeff(p: int, q: int, k: int) -> float:
    """Coefficient of <adag^{q-k} a^{p-k}> in E_W[conj^q alpha^p]."""
    return math.factorial(k) * math.comb(p, k) * math.comb(q, k) / 2.0**k


class WignerMoments:
    """Normally ordered two-mode moments from Wigner samples.

    ``normal(q, p, s, r)`` estimates <adag^q a^p bdag^s b^r> by
    recursively inverting the symmetric-ordering expansion, per mode.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a)
        self.b = np.asarray(b)
        self._raw = {}
        self._normal = {}

    def raw(self, q, p, s, r) -> complex:
        key = (q, p, s, r)
        if key not in self._raw:
            vals = (
                np.conj(self.a) ** q
                * self.a**p
                * np.conj(self.b) ** s
                * self.b**r
            )
            self._raw[key] = complex(vals.mean())
        return self._raw[key]

    def normal(self, q, p, s, r) -> complex:
        key = (q, p, s, r)
        if key not in self._normal:
            total = self.raw(q, p, s, r)
            for k in range(min(q, p) + 1):
                for l in range(min(s, r) + 1):
                    if k == 0 and l == 0:
                        continue
                    total -= (
                        _weyl_coeff(p, q, k)
                        * _weyl_coeff(r, s, l)
                        * self.normal(q - k, p - k, s - l, r - l)
                    )
            self._normal[key] = total
        return self._normal[key]

    def expect(self, poly: dict) -> complex:
        return sum(c * self.normal(*key) for key, c in poly.items())


# small normally ordered polynomial algebra on two modes; keys are
# (q, p, s, r) meaning adag^q a^p bdag^s b^r


def poly_scale(poly: dict, c) -> dict:
    return {k: c * v for k, v in poly.items()}


def poly_add(*polys) -> dict:
    out = {}
    for poly in polys:
        for k, v in poly.items():
            out[k] = out.get(k, 0) + v
    return out


def _reorder(p1: int, q2: int):
    """a^{p1} adag^{q2} = sum_k k! C(p1,k) C(q2,k) adag^{q2-k} a^{p1-k}."""
    for k in range(min(p1, q2) + 1):
        yield k, math.factorial(k) * math.comb(p1, k) * math.comb(q2, k)


def poly_mul(poly1: dict, poly2: dict) -> dict:
    out = {}
    for (q1, p1, s1, r1), c1 in poly1.items():
        for (q2, p2, s2, r2), c2 in poly2.items():
            for ka, wa in _reorder(p1, q2):
                for kb, wb in _reorder(r1, s2):
                    key = (
                        q1 + q2 - ka,
                        p1 + p2 - ka,
                        s1 + s2 - kb,
                        r1 + r2 - kb,
                    )
                    out[key] = out.get(key, 0) + c1 * c2 * wa * wb
    return out


def spin_polynomials() -> tuple:
    """(Sx, Sy, Sz, N) as normally ordered two-mode polynomials."""
    p_op = {(1, 0, 0, 1): 1.0}  # adag b
    p_dag = {(0, 1, 1, 0): 1.0}
    sx = poly_scale(poly_add(p_op, p_dag), 0.5)
    sy = poly_scale(poly_add(p_op, poly_scale(p_dag, -1.0)), -0.5j)
    sz = poly_add({(1, 1, 0, 0): 0.5}, {(0, 0, 1, 1): -0.5})
    n_tot = poly_add({(1, 1, 0, 0): 1.0}, {(0, 0, 1, 1): 1.0})
    return sx, sy, sz, n_tot


@dataclass
class SqueezingResult:
    xi2: float
    error: float
    mean_spin: np.ndarray
    min_variance: float
    total_number: float


def _xi2_from_samples(a: np.ndarray, b: np.ndarray) -> tuple:
    mom = WignerMoments(a, b)
    sx, sy, sz, n_tot = spin_polynomials()
    ops = (sx, sy, sz)
    means = np.array([mom.expect(op).real for op in ops])
    cov = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            sym = 0.5 * (
                mom.expect(poly_mul(ops[i], ops[j]))
                + mom.expect(poly_mul(ops[j], ops[i]))
            )
            cov[i, j] = cov[j, i] = sym.real - means[i] * means[j]
    total = mom.expect(n_tot).real
    norm = np.linalg.norm(means)
    if norm < 1e-12:
        return math.nan, means, math.nan, total
    unit = means / norm
    # orthonormal basis of the plane orthogonal to the mean spin
    helper = np.eye(3)[np.argmin(np.abs(unit))]
    e1 = np.cross(unit, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(unit, e1)
    basis = np.stack([e1, e2], axis=1)
    plane = basis.T @ cov @ basis
    min_var = float(np.linalg.eigvalsh(plane)[0])
    return total * min_var / norm**2, means, min_var, total


# Trajectory blocks behind the error bar of squeezing_xi2.
XI2_BLOCKS = 16


def squeezing_xi2(a: np.ndarray, b: np.ndarray) -> SqueezingResult:
    """Spin squeezing xi^2 = N min Var(S_perp) / |<S>|^2 with block bars."""
    xi2, means, min_var, total = _xi2_from_samples(a, b)
    n = a.shape[0]
    blocks = min(XI2_BLOCKS, n)
    edges = np.linspace(0, n, blocks + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 2:
            continue
        v, _, _, _ = _xi2_from_samples(a[lo:hi], b[lo:hi])
        if math.isfinite(v):
            vals.append(v)
    err = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return SqueezingResult(
        xi2=float(xi2),
        error=err,
        mean_spin=means,
        min_variance=min_var,
        total_number=total,
    )
