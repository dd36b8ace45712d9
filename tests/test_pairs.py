"""The verdict of tools/pairs.py on fixed numbers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# ten runs with quartiles 250.975 and 292.8 about a median of 275.35
PARENT = [278.7, 272.5, 369.5, 252.7, 230.6, 257.8, 278.2, 245.8, 283.2, 321.6]


def test_summary_uses_the_exclusive_quartiles():
    med, q1, q3 = pairs.summary(PARENT)
    assert (med, q1, q3) == pytest.approx((275.35, 250.975, 292.8))


def test_a_higher_is_better_gain_that_holds():
    change = [p + 60.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0  # one pair lost: 9 of 10 wins still hold
    v = pairs.verdict(PARENT, change, "higher", 0.25)
    assert v["wins"] == 9 and v["pairs"] == 10
    # the change's median, 325.15, is ahead by 49.8 against a spread of 41.825
    assert v["worse_by"] == pytest.approx(-49.8 / 275.35)
    assert v["spread"] == pytest.approx(41.825 / 275.35)
    assert v["status"] == "ok" and v["gain_holds"]


def test_a_gain_inside_the_parents_spread_does_not_hold():
    # 10 wins of 10, but a median gap of 30 against a quartile spread of 41.825
    v = pairs.verdict(PARENT, [p + 30.0 for p in PARENT], "higher", 0.25)
    assert v["wins"] == 10 and not v["gain_holds"]


def test_eight_wins_do_not_hold():
    change = [p + 60.0 for p in PARENT]
    change[0] = change[1] = 200.0
    assert not pairs.verdict(PARENT, change, "higher", 0.25)["gain_holds"]


def test_lower_is_better_worse_beyond_the_bound():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05]
    change = [1.3, 1.35, 1.2, 1.3, 1.25]
    v = pairs.verdict(parent, change, "lower", 0.25)
    assert v["worse_by"] == pytest.approx(0.3)
    assert v["wins"] == 0 and v["status"] == "worse"
    assert pairs.verdict(parent, change, "lower", 0.35)["status"] == "ok"
    # the same numbers read as higher-is-better: a 30 % gain, 5 wins
    v = pairs.verdict(parent, change, "higher", 0.25)
    assert v["wins"] == 5 and v["worse_by"] == pytest.approx(-0.3) and v["status"] == "ok"


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    v = pairs.verdict([100.0, 140.0, 80.0, 120.0, 60.0], [100.0] * 5, "higher", 0.25)
    assert v["spread"] == pytest.approx((130.0 - 70.0) / 100.0)
    assert v["status"] == "unresolved"


def test_equal_runs_win_nothing():
    v = pairs.verdict([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], "higher", 0.05)
    assert (v["wins"], v["worse_by"], v["spread"], v["status"]) == (0, 0.0, 0.0, "ok")
    assert not v["gain_holds"]


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "higher"),
    ([1.0], [1.0], "higher"),
    ([1.0, 2.0], [1.0, 2.0], "up"),
])
def test_malformed_input_rejected(parent, change, better):
    with pytest.raises(ValueError):
        pairs.verdict(parent, change, better, 0.1)


def test_seed_range():
    assert pairs._seeds("3101-3110") == range(3101, 3111)
    for text in ("7-7", "8-7"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs._seeds(text)
