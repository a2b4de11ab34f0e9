"""Unit tests for the shared cost model types."""

import math

import numpy as np
import pytest

from dhtcostlab import (
    CostBreakdown,
    CostParams,
    InvalidParameterError,
    RequestModel,
)


def test_params_accept_non_negative_floats():
    p = CostParams(s=0.0, a=1.0, r=1000.0, m=0.25)
    assert (p.s, p.a, p.r, p.m) == (0.0, 1.0, 1000.0, 0.25)


@pytest.mark.parametrize("field", ["s", "a", "r", "m"])
def test_params_reject_negative(field):
    kwargs = {"s": 0.0, "a": 0.0, "r": 0.0, "m": 0.0}
    kwargs[field] = -0.5
    with pytest.raises(InvalidParameterError):
        CostParams(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(bad):
    with pytest.raises(InvalidParameterError):
        CostParams(s=bad, a=0, r=0, m=0)


def test_breakdown_total_is_component_sum():
    b = CostBreakdown(service=0.5, access=1.25, routing=3.0, maintenance=0.25)
    assert b.total == 5.0


def test_request_model_validation_and_probabilities():
    with pytest.raises(InvalidParameterError):
        RequestModel(node_count=0)
    model = RequestModel(node_count=8)
    with pytest.raises(InvalidParameterError):
        model.sample_pairs(np.random.default_rng(0), -1)
    src, dst = model.sample_pairs(np.random.default_rng(0), 0)
    assert src.size == dst.size == 0


def test_request_model_sampling_is_uniform_and_seeded():
    model = RequestModel(node_count=5)
    rng = np.random.default_rng(3)
    src, dst = model.sample_pairs(rng, 50_000)
    assert src.shape == dst.shape == (50_000,)
    assert src.min() >= 0 and src.max() < 5
    # both ends roughly uniform; 5 sigma on a binomial count
    for arr in (src, dst):
        counts = np.bincount(arr, minlength=5)
        assert abs(counts - 10_000).max() < 5 * math.sqrt(50_000 * 0.2 * 0.8)
    # holders may equal sources (self requests are part of the model)
    assert (src == dst).any()
    again = model.sample_pairs(np.random.default_rng(3), 50_000)
    assert np.array_equal(src, again[0]) and np.array_equal(dst, again[1])
