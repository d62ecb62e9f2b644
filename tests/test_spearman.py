"""Differential test of the sweep's Spearman trend against scipy.

``experiments._spearman`` replaces ``scipy.stats.spearmanr`` in
``trend_summary`` and must give the same bits, NaN included.  The test needs
scipy (the ``test`` extra installs it) and is skipped without it.
"""

import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from platoonmatch.experiments import _spearman

stats = pytest.importorskip("scipy.stats")

# Small integers make ties and constant columns common; the rest are large
# magnitudes, an infinity and NaN.
VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([1e300, -1e300, 1e-300, 2.0**60, float("inf"), float("nan")]),
)


@st.composite
def columns(draw):
    n = draw(st.integers(0, 12))
    column = st.lists(VALUES, min_size=n, max_size=n)
    return draw(column), draw(column)


@settings(max_examples=200, deadline=None)
@given(columns())
@example(([], []))
@example(([1.0], [2.0]))
@example(([1.0, 2.0], [2.0, 1.0]))
@example(([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
@example(([1.0, 2.0, 3.0], [1.0, float("nan"), 0.0]))
@example(([0.0, 150.0, 300.0, 450.0], [-1e300, 2.0, 2.0, 1e300]))
def test_spearman_matches_scipy(ab):
    a, b = ab
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        want = float(stats.spearmanr(a, b).statistic)
    got = _spearman(a, b)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got.hex() == want.hex()
