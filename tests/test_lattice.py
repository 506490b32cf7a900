import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphase.lattice import hilbert_dimension


def _brute_boson(n, m):
    return sum(1 for occ in product(range(n + 1), repeat=m) if sum(occ) == n)


@given(n=st.integers(0, 6), m=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hilbert_dimension_matches_enumeration(n, m):
    exact, log10 = hilbert_dimension(n, m, "boson")
    assert exact == _brute_boson(n, m)
    if exact > 0:
        assert log10 == pytest.approx(math.log10(exact), abs=1e-9)


def test_hilbert_dimension_fermion_and_errors():
    exact, log10 = hilbert_dimension(5, 12, "fermion")
    assert exact == 4096
    assert log10 == pytest.approx(12 * math.log10(2.0))
    with pytest.raises(ValueError):
        hilbert_dimension(-1, 4)
    with pytest.raises(ValueError):
        hilbert_dimension(2, 0)
    with pytest.raises(ValueError):
        hilbert_dimension(2, 2, "anyon")


def test_hilbert_dimension_huge_counts_stay_fast():
    # beyond the exact-digit budget only the log10 scale is reported
    exact, log10 = hilbert_dimension(10**6, 10**6, "boson")
    assert exact is None
    assert log10 > 6e5  # astronomically large, finite float estimate
    exact_f, log10_f = hilbert_dimension(10**6, 10**6, "fermion")
    assert exact_f is None
    assert log10_f == pytest.approx(10**6 * math.log10(2.0))
    # a merely large count still yields the exact integer
    exact_mid, log_mid = hilbert_dimension(2000, 2000, "boson")
    assert isinstance(exact_mid, int)
    assert log_mid == pytest.approx(math.log10(exact_mid), rel=1e-12)
