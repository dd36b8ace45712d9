"""The per-trial record and the calibration of tools/profile.py, on a small cell."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "profile.py"
_SPEC = importlib.util.spec_from_file_location("randcs_profile", _PATH)
profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile)


@pytest.mark.parametrize("method", ["rand", "omp"])
def test_one_cell_records_every_trial(method):
    cell = profile._one(300, 0.02, method, 2)
    assert (cell["n"], cell["s"], cell["method"]) == (300, 6, method)
    assert [t["trial"] for t in cell["trials"]] == [0, 1]
    for t in cell["trials"]:
        # end to end is the row's own split, so wall_time_s keeps its meaning
        assert t["end_to_end_s"] == t["gen_time_s"] + t["wall_time_s"]
        assert 0 < t["end_to_end_s"] <= t["run_trial_s"]
        assert t["cpu_s"] >= 0 and t["maxrss_mb"] > 0
        assert 0 <= t["R"] <= 1


def test_calibration_rates_are_positive():
    cal = profile._calibrate(repeats=1, gemvs=4)
    assert cal["draw_shape"] == [8000, 1438] and cal["gemv_shape"] == [1438, 8000]
    assert cal["normals_per_s"] > 0 and cal["gemv_s"] > 0
    assert cal["normals_per_s"] == pytest.approx(8000 * 1438 / cal["draw_s"])


def test_label_is_required(capsys):
    with pytest.raises(SystemExit):
        profile.main([])
    assert "--label" in capsys.readouterr().err
