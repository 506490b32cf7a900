"""Convergence of the variational Kerr revival in the step tolerance.

This test lies outside the tier-1 ``testpaths``; run it with
``python -m pytest calibration/test_variational_convergence.py -s``
(about ten seconds on one core).  It runs the shipped `variational`
scenario (one Kerr period of a 16- or 8-member ring, lam = 1e-4, k = 4)
at rtol 1e-5 to 1e-8 and prints, per run, the largest |<a> - exact| over
the rows, the norm drift and the right-hand-side evaluations.  The
equation integrated is defined, so the error must settle as rtol falls:
what moves it is then the ansatz, not the integrator.
"""

from qphase.scenarios import parse_scenario, run_scenario

RTOLS = (1e-5, 1e-6, 1e-7, 1e-8)


def _run(members, rtol):
    """(max |<a> - exact|, norm drift, evaluations) of one scenario run."""
    outcome = run_scenario(parse_scenario(f"kind: variational\ncomponents: {members}\nrtol: {rtol:.1e}\n"))
    error = max(abs(complex(r["x"] - r["exact_x"], r["y"] - r["exact_y"])) for r in outcome.rows)
    return error, outcome.report["norm_drift"], outcome.report["rhs_evaluations"]


def test_revival_error_settles_as_rtol_falls():
    default = parse_scenario("kind: variational\n").params["rtol"]
    table = {(members, rtol): _run(members, rtol) for members in (16, 8) for rtol in {*RTOLS, default}}
    print("\nmembers  rtol   max|<a> - exact|  norm drift  evaluations")
    for (members, rtol), (error, drift, evaluations) in sorted(table.items(), key=lambda kv: (-kv[0][0], -kv[0][1])):
        print(f"{members:7d}  {rtol:.0e}  {error:16.4f}  {drift:10.2e}  {evaluations:11d}")
    converged = table[16, 1e-8][0]
    assert abs(table[16, 1e-6][0] - converged) < 2e-3
    assert abs(table[16, default][0] - converged) < 2e-3
