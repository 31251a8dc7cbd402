"""The min-sum assignment that pairs decay modes with oracle eigenvalues.

scipy's ``linear_sum_assignment`` is the reference: ``verify`` must pick the
same columns, so its ``spectrum_max_delta`` stays the same.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from thirdq.verify import _min_sum_assignment

finite = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
values = st.one_of(
    st.sampled_from([0.0, -1 + 1j, -1 - 1j, -2.0]),  # a lattice with repeats
    finite.map(lambda z: complex(round(z.real, 1), round(z.imag, 1))),
    finite,
)
spectra = st.integers(1, 11).flatmap(
    lambda size: st.tuples(*[st.lists(values, min_size=size, max_size=size)] * 2)
)


@settings(max_examples=400, deadline=None)
@given(spectra)
@example(([0.0] * 11, [0.0] * 11))  # every cost tied
@example(([-1 + 1j, -1 + 1j, 0.0], [0.0, -1 + 1j, -1 + 1j + 1e-9]))
@example(([0.1, 0.2, 0.3], [0.2, 0.2, 0.2]))
def test_min_sum_assignment_matches_scipy(pair):
    analytic, oracle = map(np.array, pair)
    cost = np.abs(analytic[:, None] - oracle[None, :])
    rows, expected = linear_sum_assignment(cost)
    cols = _min_sum_assignment(cost)
    assert cols.tolist() == expected.tolist()
    assert cost[rows, cols].max() == cost[rows, expected].max()
