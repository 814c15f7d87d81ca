"""One code path for floats and arrays: a scalar call equals element 0 of the call on [x]."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgiw import (
    OrderSpec,
    TgiwParams,
    cdf,
    cumulative_hazard,
    hazard,
    joint_os_density,
    log_pdf,
    min_max_joint_density,
    os_density,
    pdf,
    quantile,
    survival,
)

# every public function of distribution and order_stats that takes a point
ONE_POINT = {
    "cdf": cdf,
    "pdf": pdf,
    "log_pdf": log_pdf,
    "survival": survival,
    "hazard": hazard,
    "cumulative_hazard": cumulative_hazard,
    "quantile": quantile,
    "os_density": lambda p, x: os_density(p, OrderSpec(7, 3), x),
}
TWO_POINT = {
    "joint_os_density": lambda p, x, y: joint_os_density(p, OrderSpec.joint(6, 2, 5), x, y),
    "min_max_joint_density": lambda p, x, y: min_max_joint_density(p, 4, x, y),
}
BAD = [0.0, -1.0, math.nan, math.inf]

params = st.builds(
    TgiwParams,
    alpha=st.floats(0.1, 10.0),
    beta=st.floats(0.2, 6.0),
    gamma=st.floats(0.1, 10.0),
    lam=st.floats(-1.0, 1.0),
)
points = st.floats(1e-3, 1e3)
probabilities = st.floats(1e-300, 1.0, exclude_max=True)


@settings(max_examples=150, deadline=None)
@given(p=params, x=points, q=probabilities)
def test_one_point_scalar_is_element_of_array(p, x, q):
    for name, fn in ONE_POINT.items():
        v = q if name == "quantile" else x
        got = fn(p, v)
        arr = fn(p, np.array([v]))
        assert type(got) is float, name
        assert arr.shape == (1,), name
        assert got == arr[0], name


@settings(max_examples=150, deadline=None)
@given(p=params, x=points, ratio=st.floats(1.0 + 1e-9, 1e3))
def test_two_point_scalar_is_element_of_array(p, x, ratio):
    y = x * ratio
    for name, fn in TWO_POINT.items():
        got = fn(p, x, y)
        arr = fn(p, np.array([x]), np.array([y]))
        assert type(got) is float, name
        assert arr.shape == (1,), name
        assert got == arr[0], name


@pytest.mark.parametrize("name", sorted(ONE_POINT))
@pytest.mark.parametrize("bad", BAD)
def test_one_point_invalid_input_raises_on_both_paths(name, bad):
    fn = ONE_POINT[name]
    p = TgiwParams(1.0, 2.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        fn(p, bad)
    with pytest.raises(ValueError):
        fn(p, np.array([bad]))
    with pytest.raises(ValueError):
        fn(p, np.array([0.5, bad]))


@pytest.mark.parametrize("name", sorted(TWO_POINT))
@pytest.mark.parametrize("bad", BAD)
def test_two_point_invalid_input_raises_on_both_paths(name, bad):
    fn = TWO_POINT[name]
    p = TgiwParams(1.0, 2.0, 1.0, 0.3)
    for x, y in ((bad, 2.0), (0.5, bad)):
        with pytest.raises(ValueError):
            fn(p, x, y)
        with pytest.raises(ValueError):
            fn(p, np.array([x]), np.array([y]))
