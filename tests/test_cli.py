import csv
import errno
import hashlib
import json
import struct

import numpy as np
import pytest

import randcs.cli as cli
from randcs.cli import main
from randcs.numerics import GaussianSource
from randcs.recovery import determine_support, recover_basic, recover_suppressed
from randcs.sensing import (
    RecoveryConfig,
    build_ensemble,
    dump_ensemble,
    dump_measurements,
    generate_binary_signal,
    load_ensemble,
    load_measurements,
    measure,
)


def bench_args(tmp_path, **extra):
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.txt"
    args = [
        "bench",
        "--n", "128",
        "--sparsity-pct", "2",
        "--trials", "2",
        "--methods", "rand,omp",
        "--seed", "11",
        "--out", str(out),
        "--summary", str(summary),
    ]
    for flag, value in extra.items():
        args += [flag, value]
    return args, out, summary


def _no_grid(grid):
    raise AssertionError("the grid ran")


class TestBenchCommand:
    def test_successful_run(self, tmp_path, capsys):
        args, out, summary = bench_args(tmp_path)
        assert main(args) == 0
        assert out.exists() and summary.exists()
        assert (tmp_path / "summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "mean_R" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 methods x 2 trials
        assert {row["method"] for row in rows} == {"rand", "omp"}

    def test_k_and_r0_overrides_recorded(self, tmp_path):
        args, out, _ = bench_args(tmp_path)
        args += ["--k", "64", "--r0", "4"]
        assert main(args) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["k"] == "64" and row["r0"] == "4" for row in rows)

    def test_unknown_flag_is_usage_error(self, tmp_path):
        args, _, _ = bench_args(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--frobnicate"])
        assert exc.value.code == 1

    def test_bad_method_is_usage_error(self, tmp_path, capsys):
        args, _, _ = bench_args(tmp_path)
        idx = args.index("rand,omp")
        args[idx] = "rand,lasso"
        assert main(args) == 1
        assert "methods" in capsys.readouterr().err

    def test_zero_k_override_is_usage_error(self, tmp_path, capsys):
        # rejected with the grid, before any trial runs
        args, out, _ = bench_args(tmp_path)
        assert main(args + ["--k", "0"]) == 1
        assert "cell n=128, s=3: need k >= 1, got k=0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_biht_step_is_usage_error(self, tmp_path, capsys):
        # a zero step used to empty every BIHT support without an error
        args, out, _ = bench_args(tmp_path)
        assert main(args + ["--biht-step", "0"]) == 1
        assert "biht_step" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_is_usage_error(self, tmp_path, capsys):
        # a repeated method would write every trial's row twice
        args, out, _ = bench_args(tmp_path)
        args[args.index("--methods") + 1] = "omp,omp"
        assert main(args) == 1
        assert "methods must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_without_measurements_is_usage_error(self, tmp_path, capsys):
        # at n = 1 the default k = ceil(2 s ln n) and r0 = ceil(ln n) are 0;
        # the grid rejects the cell instead of failing every trial
        args, out, _ = bench_args(tmp_path)
        args[args.index("--n") + 1] = "1"
        args[args.index("--sparsity-pct") + 1] = "100"
        assert main(args) == 1
        assert "cell n=1, s=1: need k >= 1, got k=0" in capsys.readouterr().err
        assert not out.exists()

    def test_same_out_and_summary_is_usage_error(self, tmp_path, capsys):
        # the summary table used to overwrite the per-trial CSV after the grid ran
        args, out, _ = bench_args(tmp_path)
        args[args.index("--summary") + 1] = str(tmp_path / "." / "results.csv")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "--out and --summary" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("out, summary", [("results.csv", "results"),
                                              (".summary.csv", ".summary")])
    def test_out_as_summary_csv_twin_is_usage_error(
        self, tmp_path, capsys, monkeypatch, out, summary
    ):
        # the summary's CSV twin used to overwrite the per-trial CSV after the grid ran
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, _ = bench_args(tmp_path)
        args[args.index("--out") + 1] = str(tmp_path / out)
        args[args.index("--summary") + 1] = str(tmp_path / summary)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"CSV twin {tmp_path / out}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_as_default_twin_moves_the_twin(self, tmp_path):
        # results.csv beside results.txt: the twin is results.txt.csv instead
        args, out, _ = bench_args(tmp_path)
        args[args.index("--summary") + 1] = str(tmp_path / "results.txt")
        assert main(args) == 0
        assert out.read_text().startswith("method,n,s,k,r0,trial,")
        assert (tmp_path / "results.txt.csv").read_text().startswith("method,n,s,mean_R")

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_missing_output_directory_is_usage_error(self, tmp_path, capsys, monkeypatch, flag):
        # the grid used to run to the end before the write failed
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, _ = bench_args(tmp_path)
        missing = tmp_path / "missing" / "file.txt"
        args[args.index(flag) + 1] = str(missing)
        assert main(args) == 1
        assert f"the directory of {missing} does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, path, directory", [("--out", "results.csv", "results.csv"),
                                                       ("--summary", "summary.txt", "summary.txt"),
                                                       ("--summary", "summary.txt", "summary.csv")])
    def test_output_path_naming_a_directory_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flag, path, directory
    ):
        # the grid used to run to the end before the write failed with [Errno 21];
        # summary.csv is the CSV twin of --summary summary.txt
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, _ = bench_args(tmp_path)
        args[args.index(flag) + 1] = str(tmp_path / path)
        (tmp_path / directory).mkdir()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"{tmp_path / directory} is a directory" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [directory]

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_output_that_cannot_be_opened_is_usage_error(self, tmp_path, capsys, monkeypatch, flag):
        # a file name too long for the file system used to fail only after the grid
        # ran; with --summary, the results.csv the check opened first is removed again
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, _ = bench_args(tmp_path)
        args[args.index(flag) + 1] = str(tmp_path / ("x" * 300))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"randcs bench: [Errno {errno.ENAMETOOLONG}]")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_refused_run_keeps_an_existing_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, out, _ = bench_args(tmp_path)
        out.write_text("earlier results\n")
        args[args.index("--summary") + 1] = str(tmp_path / ("x" * 300))
        assert main(args) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
        assert out.read_text() == "earlier results\n"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestRecoverCommand:
    @pytest.fixture()
    def fixtures(self, tmp_path):
        cfg = RecoveryConfig(n=40, s=3, k=60, r0=6, sigma_w=0.1,
                             noise_mode="experiment", master_seed=23)
        ens = build_ensemble(cfg)
        z = generate_binary_signal(GaussianSource(23).stream(0), 40, 3)
        meas = measure(ens, z, 0.1, "experiment", 23)
        epath, mpath = tmp_path / "ens.bin", tmp_path / "meas.bin"
        dump_ensemble(ens, epath)
        dump_measurements(meas, mpath)
        return cfg, ens, meas, z, str(epath), str(mpath)

    @pytest.mark.parametrize("algorithm", ["basic", "suppressed", "support"])
    def test_algorithms_match_library(self, fixtures, algorithm, capsys):
        # expectations come from the library applied to the loaded files,
        # which is exactly what the CLI computes
        *_, epath, mpath = fixtures
        ens, meas = load_ensemble(epath), load_measurements(mpath)
        assert main(["recover", "--ensemble", epath, "--measurements", mpath,
                     "--algorithm", algorithm]) == 0
        report = json.loads(capsys.readouterr().out)
        if algorithm == "support":
            expected = determine_support(ens, meas)
        elif algorithm == "basic":
            expected = recover_basic(ens, meas).support
        else:
            expected = recover_suppressed(ens, meas).support
        assert report["support"] == sorted(expected)
        assert report["support_size"] == len(expected)
        assert (report["n"], report["k"], report["r0"]) == (40, 60, 6)

    def test_values_written_to_out_file(self, fixtures, tmp_path, capsys):
        *_, epath, mpath = fixtures
        ens, meas = load_ensemble(epath), load_measurements(mpath)
        vpath = tmp_path / "values.bin"
        assert main(["recover", "--ensemble", epath, "--measurements", mpath,
                     "--algorithm", "suppressed", "--out", str(vpath)]) == 0
        got = np.fromfile(vpath, dtype="<f8")
        assert np.array_equal(got, recover_suppressed(ens, meas).values)

    def test_out_with_support_is_usage_error(self, fixtures, tmp_path, capsys):
        # support recovers no values, so --out used to write nothing and exit 0
        *_, epath, mpath = fixtures
        vpath = tmp_path / "values.bin"
        for ensemble in (epath, str(tmp_path / "missing.bin")):
            assert main(["recover", "--ensemble", ensemble, "--measurements", mpath,
                         "--algorithm", "support", "--out", str(vpath)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("randcs recover: --out")
        assert not vpath.exists()

    def test_out_into_missing_directory_is_usage_error(self, fixtures, tmp_path, capsys):
        *_, epath, mpath = fixtures
        vpath = tmp_path / "missing" / "values.bin"
        assert main(["recover", "--ensemble", epath, "--measurements", mpath,
                     "--algorithm", "suppressed", "--out", str(vpath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("randcs recover: ")
        assert str(vpath) in captured.err
        assert not vpath.parent.exists()

    def test_header_mismatch_is_usage_error(self, fixtures, tmp_path, capsys):
        cfg, ens, _, z, epath, _ = fixtures
        other_cfg = RecoveryConfig(n=40, s=3, k=60, r0=6, sigma_w=0.1,
                                   noise_mode="experiment", master_seed=24)
        other = measure(build_ensemble(other_cfg), z, 0.1, "experiment", 24)
        mpath = tmp_path / "other.bin"
        dump_measurements(other, mpath)
        assert main(["recover", "--ensemble", epath, "--measurements", str(mpath),
                     "--algorithm", "basic"]) == 1
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["basic", "suppressed", "support"])
    def test_rcs1_ensemble_gives_the_same_support(self, fixtures, tmp_path, algorithm, capsys):
        # the same ensemble written by hand in the older RCS1 layout (row-major matrices)
        _, ens, *_, epath, mpath = fixtures
        rcs1 = tmp_path / "ens-rcs1.bin"
        header = struct.pack("<4sQQQQ", b"RCS1", ens.n, ens.k, ens.r0, ens.master_seed)
        rcs1.write_bytes(header + np.stack(list(ens.matrices)).astype("<f8").tobytes())
        reports = []
        for path in (epath, str(rcs1)):
            assert main(["recover", "--ensemble", path, "--measurements", mpath,
                         "--algorithm", algorithm]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["support"] == reports[1]["support"]

    @pytest.mark.parametrize("which", ["ensemble", "measurements"])
    def test_non_finite_fixture_is_usage_error(self, fixtures, which, capsys):
        *_, epath, mpath = fixtures
        path = epath if which == "ensemble" else mpath
        with open(path, "r+b") as fh:
            fh.seek(36 + 8 * 5)  # past the header, into the payload
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        assert main(["recover", "--ensemble", epath, "--measurements", mpath,
                     "--algorithm", "support"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert captured.err.startswith(f"randcs recover: {path}: ")  # which of the two files

    @pytest.mark.parametrize("n, k, r0", [(40, 60, 0), (40, 0, 6)])
    def test_zero_dimension_header_is_usage_error(self, tmp_path, n, k, r0, capsys):
        # header-only files: the empty payloads agree with the headers
        paths = [tmp_path / "ens.bin", tmp_path / "meas.bin"]
        for path in paths:
            path.write_bytes(struct.pack("<4sQQQQ", b"RCS1", n, k, r0, 23))
        assert main(["recover", "--ensemble", str(paths[0]), "--measurements", str(paths[1]),
                     "--algorithm", "support"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("randcs recover: ")

    def test_missing_file_is_usage_error(self, fixtures, capsys):
        *_, mpath = fixtures
        assert main(["recover", "--ensemble", "/nonexistent.bin",
                     "--measurements", mpath, "--algorithm", "basic"]) == 1


class TestFailureExitCode:
    def test_excess_failures_exit_two(self, tmp_path, monkeypatch):
        import randcs.harness as harness

        def always_fail(grid, n, s, trial):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "run_trial", always_fail)
        args, _, _ = bench_args(tmp_path)
        assert main(args) == 2

    def test_failed_trial_line_names_type_and_seed(self, tmp_path, monkeypatch, capsys):
        import randcs.harness as harness

        def failing_omp(A, b, s_budget):
            raise FloatingPointError("synthetic")

        monkeypatch.setattr(harness, "omp", failing_omp)
        args, out, _ = bench_args(tmp_path)
        assert main(args) == 2
        with open(out, newline="") as fh:
            seeds = {row["trial"]: row["seed"] for row in csv.DictReader(fh)}
        err = capsys.readouterr().err
        for trial in ("0", "1"):
            assert (f"failed trial: method=omp n=128 s=3 trial={trial} seed={seeds[trial]}: "
                    "FloatingPointError: synthetic") in err


# SHA-256 of the golden grid's results.csv data rows without wall_time_s and
# gen_time_s: fields joined by "," and rows by "\n"
GOLDEN_RESULTS_SHA256 = "fb732383916961b92ecc151d1e55158a79001fbc961c7e9ea1d61a8802e702be"


@pytest.mark.parametrize("workers", ["1", "3"])
def test_results_csv_golden_digest(tmp_path, workers):
    """The seeded results of a small four-method grid, pinned outside the timing columns.

    Every column but ``wall_time_s`` and ``gen_time_s`` is a pure function of
    the seeds: supports, sizes, k, r0 and R of ``rand``, OMP, BIHT and NBIHT.
    Change the digest only together with a CHANGES.md entry that says why
    the results changed.
    """
    out = tmp_path / "results.csv"
    assert main([
        "bench",
        "--n", "256,1024",
        "--sparsity-pct", "1,2",
        "--trials", "4",
        "--methods", "rand,omp,biht,nbiht",
        "--workers", workers,
        "--out", str(out),
        "--summary", str(tmp_path / "summary.txt"),
    ]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    keep = [i for i, col in enumerate(header) if col not in ("wall_time_s", "gen_time_s")]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    assert len(rows) == 64
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RESULTS_SHA256
