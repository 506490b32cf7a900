#!/usr/bin/env python3
"""Kerr collapse-and-revival with the coherent-state superposition ansatz.

Propagates a ring of coherent components through one revival period of
H = (chi/2) adag^2 a^2 and compares <a>(t) against the closed-form
coherent-state solution, printing the trace and the worst-case error.
A step that fails even after halving ends the run with one line on
stderr and exit code 3, as ``qphase run`` does.

Usage: python3 scripts/variational_revival.py [--components 16]
"""

import argparse
import math
import sys

from qphase.cli import EXIT_RUNTIME
from qphase.fock import kerr_oracle
from qphase.variational import (
    expectation,
    kerr_hamiltonian,
    propagate,
    ring_initial_state,
    state_norm,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--components", type=int, default=16)
    parser.add_argument("--alpha", type=float, default=math.sqrt(3.0))
    parser.add_argument("--chi", type=float, default=1.0)
    parser.add_argument("--radius", type=float, default=0.1)
    parser.add_argument("--steps", type=int, default=2000)
    args = parser.parse_args()

    dt = 2.0 * math.pi / args.steps
    state = ring_initial_state([args.alpha], args.components, radius=args.radius)
    ham = kerr_hamiltonian(args.chi, modes=1)
    try:
        times, states = propagate(
            state, ham, dt, args.steps, lam=1e-4, record_every=args.steps // 20
        )
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_RUNTIME)

    print(f"# components={args.components} alpha={args.alpha:.4f} chi={args.chi}")
    print(f"{'t':>8}  {'Re<a>':>10}  {'Im<a>':>10}  {'exact Re':>10}  {'norm':>8}")
    worst = 0.0
    for t, st in zip(times, states):
        a_num = expectation(st, (), (0,))
        a_exact = kerr_oracle([args.alpha], [[args.chi]], t)["a"][0]
        worst = max(worst, abs(a_num - a_exact))
        print(
            f"{t:8.4f}  {a_num.real:10.5f}  {a_num.imag:10.5f}  "
            f"{a_exact.real:10.5f}  {state_norm(st):8.5f}"
        )
    print()
    print(f"max |<a> - exact| over the revival: {worst:.5f}")


if __name__ == "__main__":
    main()
