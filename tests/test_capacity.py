from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp, mpf

from drew import ecc
from drew.evaluation import REDUNDANCY_CAP, capacity_curve

mp.dps = 40


def entropy_oracle(p: float) -> float:
    """Independent high-precision evaluation of the binary entropy."""
    if p in (0.0, 1.0):
        return 0.0
    x = mpf(repr(p))
    h = -(x * mp.log(x, 2) + (1 - x) * mp.log(1 - x, 2))
    return float(h)


def test_binary_entropy_against_high_precision_grid():
    grid = np.linspace(0.0, 1.0, 1000)
    ours = ecc.binary_entropy(grid)
    for p, h in zip(grid.tolist(), np.atleast_1d(ours).tolist()):
        assert abs(h - entropy_oracle(p)) < 1e-9


def test_binary_entropy_spot_values():
    assert ecc.binary_entropy(0.5) == 1.0
    assert ecc.binary_entropy(0.0) == 0.0
    assert ecc.binary_entropy(1.0) == 0.0
    assert ecc.binary_entropy(0.1) == pytest.approx(0.4690, abs=1e-4)
    with pytest.raises(ValueError):
        ecc.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        ecc.binary_entropy(1.01)


def test_capacity_rate_values_and_monotonicity():
    assert ecc.capacity_rate(0.0) == 1.0
    assert ecc.capacity_rate(0.5) == pytest.approx(0.0, abs=1e-15)
    assert ecc.capacity_rate(0.1) == pytest.approx(0.5310, abs=1e-4)
    grid = np.linspace(0.0, 0.5, 500)
    caps = np.array([ecc.capacity_rate(p) for p in grid])
    assert (np.diff(caps) < 0).all()
    with pytest.raises(ValueError):
        ecc.capacity_rate(0.6)
    with pytest.raises(ValueError):
        ecc.capacity_rate(np.nan)
    with pytest.raises(ValueError):
        ecc.capacity_rate([0.1, np.nan])


def bisection_oracle(rate: float) -> float:
    """Independent root of 1 - H(p) = rate on (0, 0.5) via mpmath bisection."""
    lo, hi = mpf("1e-12"), mpf("0.5")
    target = mpf(repr(rate))
    for _ in range(200):
        mid = (lo + hi) / 2
        cap = 1 - (-(mid * mp.log(mid, 2) + (1 - mid) * mp.log(1 - mid, 2)))
        if cap > target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_max_tolerable_flip_rate_matches_bisection_oracle():
    for rate in (0.1, 0.25, 0.5, 0.05):
        ours = ecc.max_tolerable_flip_rate(rate)
        assert ours == pytest.approx(bisection_oracle(rate), abs=1e-9)
    assert ecc.max_tolerable_flip_rate(0.1) == pytest.approx(0.3160, abs=1e-3)


def test_capacity_curve_rows():
    rows = capacity_curve([0.0, 0.1, 0.5])
    assert rows[0]["min_redundancy"] == 1.0
    assert rows[1]["capacity"] == pytest.approx(0.5310, abs=1e-4)
    assert rows[2]["min_redundancy"] == np.inf
    # near-but-not-at the cap boundary stays finite
    almost = capacity_curve([0.49])[0]
    assert almost["min_redundancy"] < REDUNDANCY_CAP or almost["min_redundancy"] == np.inf
