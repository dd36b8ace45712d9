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


def test_cell_summary_calibrates_each_trial_by_its_sweep():
    calibrations = [{"draw_s": 0.5, "gemv_s": 0.01}, {"draw_s": 1.0, "gemv_s": 0.02}]
    runs = [{"n": 300, "method": "rand", "trials": [
        {"end_to_end_s": e2e, "cpu_s": 2 * e2e, "maxrss_mb": rss} for e2e, rss in trials]}
        for trials in ([(1.0, 40.0), (2.0, 41.0)], [(2.0, 50.0), (4.0, 45.0)])]
    cell = profile._cell_summary(runs, calibrations)
    assert (cell["n"], cell["method"]) == (300, "rand")
    assert [t["sweep"] for t in cell["trials"]] == [0, 0, 1, 1]
    assert cell["end_to_end_s"]["median"] == 2.0
    assert cell["cpu_s"]["median"] == 4.0
    # one peak per process, its largest ru_maxrss
    assert cell["peak_rss_mb"]["median"] == pytest.approx(45.5)
    # both sweeps read 2 and 4 draws once divided by their own draw time
    assert cell["calibrated"]["draws"]["median"] == 3.0
    assert cell["calibrated"]["gemvs"]["median"] == 150.0


def test_log_slope_of_a_power_law_is_its_exponent():
    x = [1000.0, 2000.0, 4000.0, 8000.0]
    assert profile.log_slope(x, [3e-9 * v**1.5 for v in x]) == pytest.approx(1.5, rel=1e-12)
    # a least-squares fit: the noise about the line does not move it
    assert profile.log_slope([1.0, 2.0, 4.0], [1.0, 2.0 * 1.1, 4.0]) == pytest.approx(1.0)


def test_scaling_fits_each_sweep_on_the_doubling_series():
    def cell(method, n, fraction, s, k, r0, times):
        return {"method": method, "n": n, "fraction": fraction, "s": s, "k": k, "r0": r0,
                "trials": [{"end_to_end_s": e2e, "sweep": sweep}
                           for sweep, per_sweep in enumerate(times) for e2e in per_sweep]}

    cells = []
    for n in (1000, 2000, 4000, 8000):
        s, k, r0 = n // 100, n // 10, 7
        # rand's time follows k*n*r0 in sweep 0 and its square in sweep 1; omp is flat
        work = k * n * r0
        cells.append(cell("rand", n, 0.01, s, k, r0, [[work, 3 * work, 2 * work], [work**2]]))
        cells.append(cell("omp", n, 0.01, s, k, r0, [[5.0], [5.0]]))
    # a cell off the series is left out of the fit
    cells.append(cell("rand", 4000, 0.02, 80, 800, 7, [[1.0], [1.0]]))
    scaling = profile._scaling(cells, 2)
    assert scaling["rand"]["against"] == "k*n*r0" and scaling["omp"]["against"] == "s*k*n"
    assert scaling["rand"]["n"] == [1000, 2000, 4000, 8000]
    assert scaling["rand"]["slopes"] == pytest.approx([1.0, 2.0])
    assert scaling["rand"]["median"] == pytest.approx(1.5)
    assert scaling["omp"]["slopes"] == pytest.approx([0.0, 0.0])
