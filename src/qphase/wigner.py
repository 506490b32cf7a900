"""Truncated Wigner engine: sampling, losses, and ordering conversions.

Fields are symmetric-ordering phase-space amplitudes phi with vacuum
half-quantum noise (<|d phi|^2> = 1/2 per mode).  One table,
``_weyl_coeff``, maps normally ordered operators to their symmetric
(Weyl) symbols W and back (``_weyl_terms``); the drift and the normally
ordered moments both come from it.  With n_u = |phi_u|^2, e_s the unit
exponent of component s and n^k = prod_u n_u^{k_u}, the interaction
sum_st (chi_st / 2) a_s^dag a_t^dag a_t a_s drifts phi_s by
-i sum_t chi_st W(a_t^dag a_t a_s) = -i phi_s sum_t chi_st (n_t - (1 + delta_st) / 2):
the mean-field term plus the symmetric-ordering correction.  A loss
channel O = a^l = prod_s a_s^{l_s} at rate kappa_l (Lindblad operator
sqrt(2 kappa_l) O, one shared complex noise zeta_l) has the exact mean
drift -kappa_l l_s W(a^dag^(l-e_s) a^l) = -kappa_l l_s phi_s w_ls(n) as
its Ito drift and the noise sum_l sqrt(kappa_l) l_s conj(phi^(l-e_s)) zeta_l,
whose Ito->Stratonovich shift -kappa/2 sum_t (d^2 O/dphi_s dphi_t)* dO/dphi_t
is phi_s times a density polynomial too, so all channels together drift
by -phi_s P_s(n) with

    P_s(n) = sum_l kappa_l l_s [w_ls(n)
             + 1/2 sum_t l_t (l_t - delta_st) n^(l-e_s-e_t)].

One-body loss has w = 1; two-body loss a^2 has w = n - 1, whose +1
cancels the shift.  The noise keeps the unordered diffusion
kappa_l l_s^2 |phi^(l-e_s)|^2, which stays positive, so for nonlinear
channels part of the truncation remains.  The interaction and
-phi_s P_s(n) are phi_s times one complex polynomial G_s(n), which
``WignerModel`` evaluates for all components at once as one real matrix
product over a table of squared real and imaginary parts; its drift
allocates nothing per call.  Without loss channels, and with real chi,
G_s is purely imaginary: every density is conserved, and `evolve` takes
each trajectory's exact phase rotation from ``WignerModel.flow`` in
place of midpoint steps.  Symmetric moments are converted to normally
ordered ones before any physical observable (spin moments, xi^2
squeezing) is formed.  ``squeezing_xi2`` builds its spin polynomials once
per call, forms each distinct raw monomial of their Weyl symbols once on
the whole sample (``WignerMoments.split``), and evaluates the sample and
each trajectory block through ``WignerMoments.expect`` on those cached
means, so every bit matches a per-block evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .stochastic import WIGNER_SAMPLES, draw_rows, evolve, noise_block, run_ensemble

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
    noise = draw_rows(
        seed, WIGNER_SAMPLES, 0, trajectories, lambda gen, k: gen.standard_normal((k, 2 * alpha0.size))
    )
    return alpha0 + 0.5 * noise.view(complex)


@dataclass(frozen=True)
class LossChannel:
    """Monomial loss operator O = prod_s phi_s^{l_s} at rate kappa."""

    powers: tuple
    rate: float


def _weyl_coeff(p: int, q: int, k: int) -> float:
    """Coefficient of <adag^{q-k} a^{p-k}> in E_W[conj^q alpha^p]."""
    return math.factorial(k) * math.comb(p, k) * math.comb(q, k) / 2.0**k


@lru_cache(maxsize=None)
def _weyl_terms(creators: tuple, annihilators: tuple) -> tuple:
    """Weyl symbol of the normally ordered monomial adag^m a^n, with m and n
    the creator and annihilator counts per mode: (j, c) for each term
    c conj(phi)^(m-j) phi^(n-j), c = prod_u (-1)^{j_u} _weyl_coeff(n_u, m_u, j_u).

    The signs invert the expansion of ``_weyl_coeff``, so the same table
    turns normal moments into symmetric ones and back."""
    terms = []
    for j in itertools.product(*[range(min(m_u, n_u) + 1) for m_u, n_u in zip(creators, annihilators)]):
        c = 1.0
        for m_u, n_u, j_u in zip(creators, annihilators, j):
            c *= (-1) ** j_u * _weyl_coeff(n_u, m_u, j_u)
        terms.append((j, c))
    return tuple(terms)


def _compile(chi, channels: tuple, comps: int) -> tuple:
    """Compile the interaction and the loss channels, their powers padded
    to `comps`, into the terms of the closed-form drift and noise stated in
    ``WignerModel``.

    Returns (drift, noise).  drift holds (s, c, k), so that G_s(n) is the
    sum of the complex c n^k over the terms of component s; noise holds
    (s, l, l_s, e) for the term l_s conj(phi^e) sqrt(kappa_l) zeta_l of
    component s.  Every term left out is zero.
    """
    drift, noise = [], []

    def weyl(s, coeff, m):  # coeff W(adag^m a^(m + e_s)) = phi_s sum of c n^k
        n = m[:s] + (m[s] + 1,) + m[s + 1:]
        for j, c in _weyl_terms(m, n):
            drift.append((s, coeff * c, tuple(m_u - j_u for m_u, j_u in zip(m, j))))

    if chi is not None:
        for s, t in itertools.product(range(comps), repeat=2):
            weyl(s, -1j * chi[s, t], tuple(int(u == t) for u in range(comps)))
    for l, ch in enumerate(channels):
        if len(ch.powers) > comps:
            raise ValueError(f"loss channel {ch.powers} has more powers than the {comps} components")
        powers, rate = ch.powers + (0,) * (comps - len(ch.powers)), ch.rate
        for s, l_s in enumerate(powers):
            if not l_s:
                continue
            e = powers[:s] + (l_s - 1,) + powers[s + 1:]  # l - e_s
            weyl(s, -rate * l_s, e)
            for t, e_t in enumerate(e):  # e_t = l_t - delta_st
                if e_t:
                    drift.append((s, -0.5 * rate * l_s * powers[t] * e_t, e[:t] + (e_t - 1,) + e[t + 1:]))
            noise.append((s, l, l_s, e))
    return drift, noise


class _WignerDrift:
    """The drift of one ``WignerModel`` compiled for fields of one shape,
    with the scratch it writes through.

    Every real and imaginary part squared fills the first 2S columns of the
    column-major density table D, each density monomial of degree two or
    more one column after them, and a last column of ones, set once here,
    carries the constant part of
    G_s = -P_s(n) - i sum_t chi_st (n_t - (1 + delta_st) / 2).
    One real matrix M, filled from the terms of ``_compile``, maps D to the
    interleaved real and imaginary parts of G_s, so the chi and loss drift
    is (D @ M).view(complex) * phi; ``rates`` evaluates G alone.  Each
    noise term is one multiply-add into its component's column.
    """

    def __init__(self, model, shape):
        n, comps = shape
        drift, noise = _compile(model.chi, model.channels, comps)
        self.shape = shape
        self.high = sorted({k for _, _, k in drift if sum(k) > 1})
        self.m = np.zeros((2 * comps + len(self.high) + 1, 2 * comps))
        for s, c, k in drift:
            degree = sum(k)
            if degree == 0:
                rows = [-1]  # the ones column
            elif degree == 1:
                rows = [2 * k.index(1), 2 * k.index(1) + 1]  # n_u = re_u^2 + im_u^2
            else:
                rows = [2 * comps + self.high.index(k)]
            self.m[rows, 2 * s] += c.real
            self.m[rows, 2 * s + 1] += c.imag
        self.table = np.empty((n, self.m.shape[0]), order="F")  # contiguous columns: no buffered writes
        self.table[:, -1] = 1.0
        self.squares = self.table[:, :2 * comps]
        self.density = np.empty((n, comps), order="F") if self.high else None
        self.g = np.empty((n, 2 * comps))
        # (component, channel, factor, conj(phi) columns whose product is conj(phi^e))
        self.noise = tuple(
            (s, l, c, tuple(u for u, e_u in enumerate(e) for _ in range(e_u)))
            for s, l, c, e in noise
        )
        self.conj = np.empty((n, comps), dtype=complex) if any(f for *_, f in self.noise) else None
        self.column = np.empty(n, dtype=complex) if self.noise else None
        # no noise and a purely imaginary G: every density is conserved,
        # so G never changes along a trajectory
        self.exact_flow = not self.noise and not self.m[:, 0::2].any()

    def rates(self, parts):
        """G_s(n) for every trajectory and component, (D @ M).view(complex),
        from the interleaved real and imaginary parts of the fields;
        written into scratch."""
        np.multiply(parts.T, parts.T, out=self.squares.T)
        if self.high:
            np.add(self.squares[:, 0::2], self.squares[:, 1::2], out=self.density)
            for h, k in enumerate(self.high, start=self.squares.shape[1]):
                column = self.table[:, h]
                column.fill(1.0)
                for u, k_u in enumerate(k):
                    for _ in range(k_u):
                        column *= self.density[:, u]
        np.matmul(self.table, self.m, out=self.g)
        return self.g.view(complex)

    def __call__(self, fields, zeta, out):
        np.multiply(self.rates(np.ascontiguousarray(fields).view(float)), fields, out=out)
        if self.conj is not None:
            np.conjugate(fields, out=self.conj)
        for s, l, c, factors in self.noise:
            term = zeta[:, l]
            if factors:
                term = np.multiply(self.conj[:, factors[0]], term, out=self.column)
                for u in factors[1:]:
                    term *= self.conj[:, u]
            if c != 1:
                term = np.multiply(term, c, out=self.column)
            out[:, s] += term
        return out


@dataclass(frozen=True)
class WignerModel:
    """Drift + loss noise for a multi-component single-site Bose field.

    d phi_s/dt = -i chi_ss' (|phi_s'|^2 - (1 + delta_ss') / 2) phi_s
                 - phi_s P_s(n)
                 + sum_l sqrt(kappa_l) l_s conj(phi^(l-e_s)) zeta_l

    The loss SDEs are Ito equations; the model integrates them through
    the midpoint scheme, so the real density polynomial P_s(n) (module
    docstring) holds both the Weyl-ordered Ito loss drift and the
    analytic Ito->Stratonovich shift.
    Without loss channels, and with real chi, the drift is
    phi_s G_s(n) with purely imaginary G_s, so every density is conserved
    and each trajectory is one exact phase rotation (Sinatra, Lobo &
    Castin, J. Phys. B 35, 3599 (2002)); ``flow`` hands `evolve` its
    rates, evaluated once from the compiled drift, and no step is taken.

    The model is frozen and keeps a read-only copy of chi and tuple
    powers, so the drift compiled from them (see ``_WignerDrift``)
    on the first call for a field shape can never go stale; use
    ``dataclasses.replace`` for a changed model.  ``noise`` folds
    sqrt(kappa_l) into each channel's zeta_l when it is drawn.
    """

    chi: np.ndarray = None  # (S, S) symmetric interaction matrix, or None
    channels: tuple = ()
    # Never read (the field array sets the component count); kept because
    # the wigner-loss workload in perfbench/workloads.py passes it.
    components: int = 1
    seed: int = 0
    _drift: _WignerDrift = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.chi is not None:
            chi = np.array(self.chi)
            chi.flags.writeable = False
            object.__setattr__(self, "chi", chi)
        channels = tuple(LossChannel(tuple(ch.powers), ch.rate) for ch in self.channels)
        object.__setattr__(self, "channels", channels)

    def noise(self, step_index: int, n_traj: int, dt: float):
        """sqrt(kappa_l) zeta_l for every loss channel l, with complex zeta_l
        of <zeta zeta*> = 1/dt whose real and imaginary parts are two-point
        noises of variance 1/(2 dt) (see `stochastic.noise_block`), or None
        without losses."""
        if not self.channels:
            return None
        raw = noise_block(self.seed, step_index, n_traj, 2 * len(self.channels))
        zeta = raw.view(complex)  # the model's own block, scaled in place
        row = np.sqrt([ch.rate for ch in self.channels]) / math.sqrt(2.0 * dt)
        for l, scale in enumerate(row):  # a scalar per column: cheaper than a broadcast row
            zeta[:, l] *= scale
        return zeta

    def _compiled(self, shape) -> _WignerDrift:
        drift = self._drift
        if drift is None or drift.shape != shape:
            drift = _WignerDrift(self, shape)
            object.__setattr__(self, "_drift", drift)
        return drift

    def derivative(self, fields: np.ndarray, step_index: int, zeta, out: np.ndarray) -> np.ndarray:
        return self._compiled(fields.shape)(fields, zeta, out)

    def flow(self, fields: np.ndarray):
        """The rates G_s(n) of the exact flow phi(t) = phi(0) exp(t G), or
        None when the model has noise or a real part of G.

        Without loss channels, and with real chi, G_s is purely
        imaginary, so d|phi_s|^2/dt = 2 Re(G_s) |phi_s|^2 = 0: every density
        n_s, and with it G_s(n), is a constant of the motion."""
        drift = self._compiled(fields.shape)
        if not drift.exact_flow:
            return None
        return drift.rates(np.ascontiguousarray(fields).view(float)).copy()


def run_wigner_x(
    alpha0,
    chi,
    times,
    trajectory_count: int,
    seed: int,
    dt: float,
    channels=(),
):
    """Time series of <X> = Re <a> for the first component, with bars."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    model = WignerModel(
        chi=np.atleast_2d(chi) if chi is not None else None,
        channels=tuple(channels),
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
        for step_idx, state, alive in evolve(fields, model, dt, max(wanted, default=0), record=wanted)
    }


# ---------------------------------------------------------------------------
# normal moments from Wigner samples, two modes
# ---------------------------------------------------------------------------


class WignerMoments:
    """Normally ordered two-mode moments from Wigner samples.

    ``normal(q, p, s, r)`` estimates <adag^q a^p bdag^s b^r> as the sample
    mean of its Weyl symbol (``_weyl_terms``), a weighted sum of raw
    moments: means of the monomials conj(a)^q a^p conj(b)^s b^r, each
    cached once taken.  ``split`` gives the moments of several slices of
    the sample with chosen raw moments already cached, forming each of
    those monomials once on the whole sample.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a)
        self.b = np.asarray(b)
        self._raw = {}
        self._normal = {}

    def raw(self, q, p, s, r) -> complex:
        key = (q, p, s, r)
        if key not in self._raw:
            (whole,) = self.split([key], [(0, self.a.shape[0])])
            self._raw[key] = whole._raw[key]
        return self._raw[key]

    def split(self, keys, slices) -> list:
        """One ``WignerMoments`` per (lo, hi) of `slices`, of samples
        lo..hi - 1, with the raw moments of `keys` cached.  Each monomial
        is the product of its four power factors, left to right, formed once
        on the whole sample from powers taken once per exponent; besides the
        powers, one monomial is held at a time."""
        parts = [WignerMoments(self.a[lo:hi], self.b[lo:hi]) for lo, hi in slices]
        powers = {}
        for key in keys:
            factors = []
            for slot, k in enumerate(key):
                if (slot, k) not in powers:
                    field = self.a if slot < 2 else self.b
                    powers[slot, k] = (np.conj(field) if slot % 2 == 0 else field) ** k
                factors.append(powers[slot, k])
            vals = factors[0] * factors[1] * factors[2] * factors[3]
            for part, (lo, hi) in zip(parts, slices):
                part._raw[key] = complex(vals[lo:hi].mean())
        return parts

    def normal(self, q, p, s, r) -> complex:
        key = (q, p, s, r)
        if key not in self._normal:
            terms = _weyl_terms((q, s), (p, r))
            self._normal[key] = sum(c * self.raw(q - k, p - k, s - l, r - l) for (k, l), c in terms)
        return self._normal[key]

    def expect(self, poly: dict) -> complex:
        return sum(c * self.normal(*key) for key, c in poly.items())


def _raw_keys(poly: dict) -> list:
    """The raw moments (q, p, s, r) that ``WignerMoments.expect`` reads for `poly`."""
    return [
        (q - k, p - k, s - l, r - l)
        for q, p, s, r in poly
        for (k, l), _ in _weyl_terms((q, s), (p, r))
    ]


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


def _spin_products() -> tuple:
    """(Sx, Sy, Sz), N and {(i, j): (S_i S_j, S_j S_i)} for i <= j."""
    sx, sy, sz, n_tot = spin_polynomials()
    ops = (sx, sy, sz)
    pairs = {
        (i, j): (poly_mul(ops[i], ops[j]), poly_mul(ops[j], ops[i]))
        for i in range(3)
        for j in range(i, 3)
    }
    return ops, n_tot, pairs


def _xi2_from_moments(mom: WignerMoments, products: tuple) -> tuple:
    """xi^2 pieces from the moments of one sample, with `products` from `_spin_products`."""
    ops, n_tot, pairs = products
    means = np.array([mom.expect(op).real for op in ops])
    cov = np.zeros((3, 3))
    for (i, j), (p_ij, p_ji) in pairs.items():
        sym = 0.5 * (mom.expect(p_ij) + mom.expect(p_ji))
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
    """Spin squeezing xi^2 = N min Var(S_perp) / |<S>|^2 (Wineland et al.,
    PRA 50, 67 (1994)) of two-mode Wigner samples, with a block bar.

    `a` and `b` hold the two modes' amplitudes, one entry per trajectory;
    they must be 1-D, of one length and hold at least two samples.  The
    spin moments <S_i>, <S_i S_j> and <N> are normally ordered polynomials
    (``spin_polynomials``, ``poly_mul``), built once per call.  Each
    distinct monomial conj(a)^q a^p conj(b)^s b^r of their Weyl symbols is
    formed once on the whole sample and averaged over it and over each of
    ``XI2_BLOCKS`` blocks of consecutive trajectories (``WignerMoments.split``);
    ``WignerMoments.expect`` then sums those means on Python complex
    scalars, so each block's value is bit for bit the one a fresh
    ``WignerMoments`` of that block gives.  xi^2 is taken on the whole
    sample and on every block of two or more, and the bar is the standard
    error of the finite block values.

    Limits: xi^2 is a nonlinear function of the means, and its minimum over
    in-plane directions is biased low: for a coherent state, xi^2 = 1, the
    estimate at t = 0 sits about 1.2 bars below 1 on average, and the
    16-block bar under-covers (0.5-0.8 % of seeds fall beyond 5 bars, up to
    7.5).  A delete-one-block jackknife bar is to replace this one.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape or a.shape[0] < 2:
        raise ValueError(
            f"squeezing_xi2 needs two 1-D samples of one length, at least 2; got shapes {a.shape} and {b.shape}"
        )
    products = _spin_products()  # shared by the full sample and every block
    ops, n_tot, pairs = products
    keys = dict.fromkeys(
        key for poly in (*ops, n_tot, *itertools.chain(*pairs.values())) for key in _raw_keys(poly)
    )
    n = a.shape[0]
    edges = np.linspace(0, n, min(XI2_BLOCKS, n) + 1, dtype=int)
    blocks = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo >= 2]
    whole, *parts = WignerMoments(a, b).split(keys, [(0, n)] + blocks)
    xi2, means, min_var, total = _xi2_from_moments(whole, products)
    vals = [v for v in (_xi2_from_moments(part, products)[0] for part in parts) if math.isfinite(v)]
    err = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return SqueezingResult(
        xi2=float(xi2),
        error=err,
        mean_spin=means,
        min_variance=min_var,
        total_number=total,
    )
