"""Explicit references for code that computes the same thing faster.

In the 4-mode double-well references modes are ordered (a1, a2, b1, b2),
the joint modes c of ``qphase.spins``.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qphase.fock import StateVector
from qphase.gaussian_entropy import RenyiResult, inner_product
from qphase.stochastic import MIDPOINT_ITERS, STEP_NOISE, draw_rows
from qphase.wigner import (
    XI2_BLOCKS,
    SqueezingResult,
    WignerMoments,
    poly_mul,
    spin_polynomials,
)


def joint_moments(state: StateVector):
    """(G1, G2) with G1[i, j] = <c_i^dag c_j> and G2[i, j, p, q] =
    <c_i^dag c_j c_p^dag c_q> on a 4-mode state, from the bilinears
    applied to the full joint vector; the reference for
    ``spins.ProductEvaluator``."""
    psi = state.amplitudes
    ladder = [state.basis.annihilation(m) for m in range(4)]
    # hop[i][j] = c_i^dag c_j |psi>
    hop = [[ladder[i].conj().T @ (ladder[j] @ psi) for j in range(4)] for i in range(4)]
    g1 = np.array([[np.vdot(psi, hop[i][j]) for j in range(4)] for i in range(4)])
    g2 = np.empty((4, 4, 4, 4), dtype=complex)
    for i, j, p, q in np.ndindex(4, 4, 4, 4):
        # <psi| c_i^dag c_j c_p^dag c_q |psi> = <c_j^dag c_i psi | c_p^dag c_q psi>
        g2[i, j, p, q] = np.vdot(hop[j][i], hop[p][q])
    return g1, g2


def beam_splitter(state: StateVector, mixing_angle: float, phase: float = 0.0) -> StateVector:
    """Schroedinger-picture a_i -> cos(theta) a_i + e^{i phi} sin(theta) b_i
    on both spin components; the reference for ``spins.beam_splitter_map``."""
    psi = state.amplitudes
    for i in (0, 1):
        a, b = state.basis.annihilation(i), state.basis.annihilation(i + 2)
        hop = a.conj().T @ b  # a_i^dag b_i
        gen = np.exp(1j * phase) * hop - np.exp(-1j * phase) * hop.conj().T
        psi = expm_multiply(mixing_angle * gen, psi)
    return StateVector(state.basis, psi, state.truncation_loss)


def allocating_step(state, derivative, dt):
    """One midpoint step of dy/dt = derivative(y) into fresh arrays, with
    `derivative(y)` returning a fresh drift; the reference for the
    in-place ``stochastic.step``, which must match it bit for bit."""
    mid = state + 0.5 * dt * derivative(state)
    for _ in range(MIDPOINT_ITERS - 1):
        np.multiply(derivative(mid), 0.5 * dt, out=mid)
        mid += state
    return np.subtract(np.multiply(2.0, mid, out=mid), state, out=mid)


def gaussian_noise_block(master_seed, step_index, n_traj, per_traj):
    """Standard normals of shape (n_traj, per_traj) from the step-noise
    stream addresses ``stochastic.noise_block`` reads, row-major per block:
    the Gaussian reference law for its two-point step noise."""
    return draw_rows(
        master_seed, STEP_NOISE, step_index, n_traj, lambda gen, k: gen.standard_normal((k, per_traj))
    )


def _monomial(fields, powers):
    out = np.ones(fields.shape[0], dtype=complex)
    for s, l in enumerate(powers):
        if l:
            out = out * fields[:, s] ** l
    return out


def _monomial_grad(fields, powers, s):
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial(fields, reduced)


def _monomial_hess(fields, powers, s, t):
    if powers[s] == 0:
        return np.zeros(fields.shape[0], dtype=complex)
    reduced = list(powers)
    reduced[s] -= 1
    return powers[s] * _monomial_grad(fields, reduced, t)


def _weyl_symbol(fields, creators, annihilators):
    """Weyl symbol of the normally ordered adag^m a^n at the fields, mode by
    mode: sum_j (-1/2)^j j! C(m, j) C(n, j) conj(phi)^(m-j) phi^(n-j)."""
    out = np.ones(fields.shape[0], dtype=complex)
    for u, (m, n) in enumerate(zip(creators, annihilators)):
        phi = fields[:, u]
        out = out * sum(
            (-0.5) ** j * math.factorial(j) * math.comb(m, j) * math.comb(n, j)
            * np.conj(phi) ** (m - j) * phi ** (n - j)
            for j in range(min(m, n) + 1)
        )
    return out


def wigner_derivative(model, fields, zeta):
    """Truncated Wigner drift with every loss channel's Weyl-ordered drift,
    noise gradient and Hessian rebuilt per component, zero terms included,
    and the interaction's symmetric-ordering correction; the reference for
    ``wigner.WignerModel.derivative``, which merges like terms of the
    drift and so matches it to rounding, not bit for bit.  Column l
    of `zeta` is channel l's noise with sqrt(kappa_l) already folded in,
    as ``WignerModel.noise`` draws it."""
    n_comp = fields.shape[1]
    d = np.zeros_like(fields)
    if model.chi is not None:
        # Weyl symbol of the interaction: n_t - (1 + delta_st) / 2 in place of n_t
        chi = np.asarray(model.chi)
        density = np.abs(fields) ** 2
        d += -1j * ((density - 0.5) @ chi.T - 0.5 * np.diag(chi)) * fields
    for l, ch in enumerate(model.channels):
        powers = ch.powers
        grads = [_monomial_grad(fields, powers, s) for s in range(n_comp)]
        for s in range(n_comp):
            if powers[s]:
                # Ito drift -kappa l_s W(adag^(l - e_s) a^l), the exact mean drift
                reduced = powers[:s] + (powers[s] - 1,) + powers[s + 1:]
                d[:, s] += -ch.rate * powers[s] * _weyl_symbol(fields, reduced, powers)
            d[:, s] += np.conj(grads[s]) * zeta[:, l]
            for t in range(n_comp):
                hess = _monomial_hess(fields, powers, s, t)
                d[:, s] += -0.5 * ch.rate * np.conj(hess) * grads[t]
    return d


def two_body_loss_number(alpha0, kappa, times, levels=120):
    """<n>(t) of a coherent state |alpha0> under the two-body loss channel
    O = a^2 at rate kappa (L = sqrt(2 kappa) a^2), from the population
    master equation dp_n/dt = 2 kappa [(n+2)(n+1) p_{n+2} - n(n-1) p_n]
    on `levels` Fock levels; the exact reference for a truncated Wigner
    run with ``LossChannel((2,), kappa)``."""
    n = np.arange(levels, dtype=float)
    rates = np.diag(-2.0 * kappa * n * (n - 1.0)) + np.diag(2.0 * kappa * n[2:] * (n[2:] - 1.0), k=2)
    nbar = abs(alpha0) ** 2
    p0 = np.exp(-nbar + n * math.log(nbar) - np.array([math.lgamma(k + 1.0) for k in n]))
    return np.array([n @ expm(rates * t) @ p0 for t in times])


def plusp_derivative(model, state, step_index, xi):
    """+P drift of ``plusp.KerrPlusP`` in the per-half form it had before
    the noise was folded into rate columns: sqrt(+-i chi) xi as the noise
    term, chi alpha beta and the Stratonovich correction added separately,
    all into fresh arrays; `xi` holds the 2M real noises already scaled by
    1/sqrt(dt).  The reference for ``KerrPlusP.derivative``, which sums
    the same terms in another order and so matches it to rounding."""
    m = model.modes
    sign = -1.0 if model.reverse_step is not None and step_index >= model.reverse_step else 1.0
    chi = sign * model.chi
    noise = np.concatenate(
        [xi[:, :m] * np.sqrt(1j * chi + 0j), xi[:, m:] * np.sqrt(-1j * chi + 0j)], axis=1
    )
    cross = chi * state[:, :m] * state[:, m:]
    out = np.empty(state.shape, dtype=complex)
    for cols, rot, strat in ((slice(None, m), -1j, 0.5j), (slice(m, None), 1j, -0.5j)):
        y = state[:, cols]
        out[:, cols] = rot * (cross + noise[:, cols]) * y + strat * chi * y
    return out


def _xi2_from_samples(a, b):
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
    helper = np.eye(3)[np.argmin(np.abs(unit))]
    e1 = np.cross(unit, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(unit, e1)
    basis = np.stack([e1, e2], axis=1)
    min_var = float(np.linalg.eigvalsh(basis.T @ cov @ basis)[0])
    return total * min_var / norm**2, means, min_var, total


def squeezing_xi2(a, b):
    """xi^2 with the spin polynomials and their products rebuilt, and every
    raw moment formed and averaged anew through ``WignerMoments.expect``,
    for the full sample and for every block; the reference for
    ``wigner.squeezing_xi2``, which builds the polynomials once per call
    and forms each monomial once on the full sample, caching its mean over
    the sample and over each block."""
    xi2, means, min_var, total = _xi2_from_samples(a, b)
    edges = np.linspace(0, a.shape[0], min(XI2_BLOCKS, a.shape[0]) + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 2:
            continue
        v = _xi2_from_samples(a[lo:hi], b[lo:hi])[0]
        if math.isfinite(v):
            vals.append(v)
    err = float(np.std(vals) / math.sqrt(len(vals))) if len(vals) > 1 else math.inf
    return SqueezingResult(float(xi2), err, means, min_var, total)


def renyi_entropy(points, pairing="disjoint"):
    """One scalar ``inner_product`` call per pair; the reference for the
    blocked ``gaussian_entropy.renyi_entropy``."""
    points = list(points)
    if pairing == "disjoint":
        idx_pairs = [(2 * k, 2 * k + 1) for k in range(len(points) // 2)]
        pair_weights = np.array(
            [points[i].weight * points[j].weight for i, j in idx_pairs]
        )
    else:
        idx_pairs = [
            (i, j) for i in range(len(points)) for j in range(i, len(points))
        ]
        pair_weights = np.array(
            [
                (1.0 if i == j else 2.0) * points[i].weight * points[j].weight
                for i, j in idx_pairs
            ]
        )
    vals = np.empty(len(idx_pairs), dtype=complex)
    for k, (i, j) in enumerate(idx_pairs):
        vals[k] = pair_weights[k] * inner_product(points[i], points[j])
    weights = np.array([p.weight for p in points])
    if pairing == "disjoint":
        used = [i for pair in idx_pairs for i in pair]
        w_mean = weights[used].mean()
        purity = complex(vals.mean() / w_mean**2)
        spread = float(np.std(vals.real) / math.sqrt(len(vals))) / abs(w_mean) ** 2
    else:
        purity = complex(vals.sum() / weights.sum() ** 2)
        spread = float(np.std(vals.real) * math.sqrt(len(vals))) / abs(weights.sum()) ** 2
    sign_problem = bool(
        purity.real <= 0 or abs(purity.imag) > 3.0 * max(spread, 1e-300)
        and abs(purity.imag) > 1e-10 * abs(purity.real)
    )
    if purity.real > 0:
        s2, s2_err = -math.log(purity.real), spread / purity.real
    else:
        s2, s2_err = math.nan, math.inf
    return RenyiResult(s2, purity, spread, s2_err, len(idx_pairs), sign_problem)


def kerr_terms(chi, modes, omega=None):
    """H = sum_k omega_k adag_k a_k + (chi/2) sum_k adag_k^2 a_k^2 spelled out
    as normal-ordered terms (coeff, creation modes, annihilation modes)."""
    terms = [(0.5 * chi, (k, k), (k, k)) for k in range(modes)]
    if omega is not None:
        terms += [(omega[k], (k,), (k,)) for k in range(modes)]
    return terms


def polynomial_symbol(terms, bra_conj, ket):
    """H^(mn) built term by term on full (N, N) arrays; the reference for
    row 0 of ``variational.KerrHamiltonian.symbols``."""
    n = bra_conj.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for coeff, creation, annihilation in terms:
        term = np.full((n, n), coeff, dtype=complex)
        for k in creation:
            term *= bra_conj[:, k][:, None]
        for k in annihilation:
            term *= ket[:, k][None, :]
        out += term
    return out


def polynomial_symbol_grad(terms, bra_conj, ket, k):
    """d H^(mn) / d conj(alpha_k^(m)) term by term; the reference for
    row k + 1 of ``variational.KerrHamiltonian.symbols``."""
    n = bra_conj.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for coeff, creation, annihilation in terms:
        count = creation.count(k)
        if count == 0:
            continue
        term = np.full((n, n), coeff * count, dtype=complex)
        reduced = list(creation)
        reduced.remove(k)
        for kk in reduced:
            term *= bra_conj[:, kk][:, None]
        for kk in annihilation:
            term *= ket[:, kk][None, :]
        out += term
    return out


def variational_system_reference(state, terms):
    """Gram matrix V from one ``einsum`` and the Hamiltonian vector from
    the term-by-term symbols of ``terms``, each gradient built separately;
    the reference for ``variational.variational_system``, which evaluates
    the closed-form symbols in one pass and so matches it to rounding."""
    n, m = state.members, state.modes
    expo = state.alpha0.conj()[:, None] + state.alpha0[None, :] + state.amps.conj() @ state.amps.T
    rho = np.exp(expo)
    tilde = np.concatenate([np.ones((n, 1), dtype=complex), state.amps], axis=1)
    bra_conj, ket = state.amps.conj(), state.amps
    v = np.einsum("mk,nl,mn->mlnk", tilde.conj(), tilde, rho)
    for k in range(1, m + 1):
        v[:, k, :, k] += rho
    h_sym = polynomial_symbol(terms, bra_conj, ket)
    h_vec = np.zeros((n, m + 1), dtype=complex)
    h_vec[:, 0] = (h_sym * rho).sum(axis=1)
    for l in range(1, m + 1):
        grad = polynomial_symbol_grad(terms, bra_conj, ket, l - 1)
        h_vec[:, l] = ((grad + h_sym * ket[:, l - 1][None, :]) * rho).sum(axis=1)
    return v.reshape(n * (m + 1), n * (m + 1)), h_vec.ravel()
