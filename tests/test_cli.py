import csv
import errno
import hashlib
import json
import os
import struct
from dataclasses import fields

import numpy as np
import pytest

import randcs.cli as cli
from randcs.cli import main
from randcs.harness import ExperimentGrid, GridOutcome
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


def _no_read(path):
    raise AssertionError(f"{path} was read")


def _captured_grids(monkeypatch) -> list:
    """Patch ``cli.run_grid`` to record each grid it is given and run no trial."""
    grids = []

    def capture(grid):
        grids.append(grid)
        return GridOutcome(results=[], summaries=[], failures=[])

    monkeypatch.setattr(cli, "run_grid", capture)
    return grids


# the grid of `randcs bench` without grid flags
DEFAULT_GRID = ExperimentGrid(n_values=(2000, 4000, 8000),
                              sparsity_fractions=(0.01, 0.02, 0.04, 0.08))


class TestBenchCommand:
    def test_successful_run(self, tmp_path, capsys):
        args, out, summary = bench_args(tmp_path)
        assert main(args) == 0
        assert out.exists() and summary.exists()
        assert (tmp_path / "summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "mean_R" in stdout
        assert stdout == summary.read_text()
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

    def test_no_grid_flag_gives_the_default_grid(self, tmp_path, monkeypatch):
        grids = _captured_grids(monkeypatch)
        assert main(["bench", "--out", str(tmp_path / "results.csv"),
                     "--summary", str(tmp_path / "summary.txt")]) == 0
        assert grids == [DEFAULT_GRID]

    def test_each_grid_flag_sets_its_own_field(self, tmp_path, monkeypatch):
        grids = _captured_grids(monkeypatch)
        _, out, summary = bench_args(tmp_path)
        assert main(["bench", "--n", "128,256", "--sparsity-pct", "2,4", "--trials", "3",
                     "--methods", "omp,biht", "--sigma-w", "0.2", "--noise-mode", "theory",
                     "--seed", "7", "--k", "64", "--r0", "4", "--biht-iters", "20",
                     "--biht-step", "0.5", "--workers", "2",
                     "--out", str(out), "--summary", str(summary)]) == 0
        assert grids == [ExperimentGrid(
            n_values=(128, 256), sparsity_fractions=(0.02, 0.04), trials=3,
            methods=("omp", "biht"), sigma_w=0.2, noise_mode="theory", master_seed=7,
            k_override=64, r0_override=4, biht_max_iters=20, biht_step=0.5, workers=2,
        )]
        # a field that no flag reaches keeps its default
        kept = [f.name for f in fields(ExperimentGrid)
                if getattr(grids[0], f.name) == getattr(DEFAULT_GRID, f.name)]
        assert kept == []

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
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
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
        assert f"Is a directory: '{tmp_path / directory}'" in captured.err
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

    def test_symlink_to_out_moves_the_twin(self, tmp_path):
        # link.csv, the twin of --summary link.txt, leads to the results file:
        # the summary's CSV goes to link.txt.csv, not over results.csv
        args, out, _ = bench_args(tmp_path)
        (tmp_path / "link.csv").symlink_to("results.csv")
        args[args.index("--summary") + 1] = str(tmp_path / "link.txt")
        assert main(args) == 0
        assert out.read_text().startswith("method,n,s,k,r0,trial,")
        assert (tmp_path / "link.txt.csv").read_text().startswith("method,n,s,mean_R")

    def test_symlink_to_summary_as_twin_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # summary.csv, the twin of --summary summary.txt, leads to the table:
        # the run used to exit 0 with the table overwritten by its CSV
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, _ = bench_args(tmp_path)
        (tmp_path / "summary.csv").symlink_to("summary.txt")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"CSV twin {tmp_path / 'summary.csv'}" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_summary_hard_linked_to_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # results.csv and table.txt are one file: the table used to replace the per-trial rows
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, out, _ = bench_args(tmp_path)
        out.write_text("old\n")
        os.link(out, tmp_path / "table.txt")
        args[args.index("--summary") + 1] = str(tmp_path / "table.txt")
        assert main(args) == 1
        captured = capsys.readouterr()
        twin = tmp_path / "table.csv"
        assert captured.err == ("randcs bench: --out and --summary must name different files, "
                                f"and neither may be the summary's CSV twin {twin}\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "table.txt"]
        assert out.read_text() == "old\n"

    def test_twin_hard_linked_to_summary_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # summary.csv, the twin of --summary summary.txt, is the table under a second name
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, _, summary = bench_args(tmp_path)
        summary.write_text("old\n")
        os.link(summary, tmp_path / "summary.csv")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert f"CSV twin {tmp_path / 'summary.csv'}" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv", "summary.txt"]
        assert summary.read_text() == "old\n"

    def test_twin_hard_linked_to_out_moves_the_twin(self, tmp_path):
        # link.csv, the twin of --summary link.txt, is the results file under a
        # second name: the summary's CSV goes to link.txt.csv, as for a symlink
        args, out, _ = bench_args(tmp_path)
        out.write_text("old\n")
        os.link(out, tmp_path / "link.csv")
        args[args.index("--summary") + 1] = str(tmp_path / "link.txt")
        assert main(args) == 0
        assert out.read_text().startswith("method,n,s,k,r0,trial,")
        assert (tmp_path / "link.txt.csv").read_text().startswith("method,n,s,mean_R")

    def test_refused_run_leaves_no_target_of_a_dangling_link(self, tmp_path, monkeypatch):
        # --out leads to a file that does not exist yet: the probe creates it
        # through the link, and a refused run used to leave it behind
        monkeypatch.setattr(cli, "run_grid", _no_grid)
        args, out, _ = bench_args(tmp_path)
        out.symlink_to("target.csv")
        args[args.index("--summary") + 1] = str(tmp_path / ("x" * 300))
        assert main(args) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]
        assert out.is_symlink() and not (tmp_path / "target.csv").exists()

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

    @pytest.mark.parametrize("name", ["ens.bin", "meas.bin"])
    def test_out_naming_an_input_is_usage_error(self, fixtures, tmp_path, capsys, monkeypatch,
                                                name):
        # --out meas.bin used to replace the measurement fixture with the values;
        # the input is named as given, through a symlink and through a hard link,
        # and neither is read or written
        *_, epath, mpath = fixtures
        before = {path: (tmp_path / path).read_bytes() for path in ("ens.bin", "meas.bin")}
        monkeypatch.setattr(cli, "load_ensemble", _no_read)
        monkeypatch.setattr(cli, "load_measurements", _no_read)
        (tmp_path / "link.bin").symlink_to(name)
        os.link(tmp_path / name, tmp_path / "hard.bin")
        for out in (str(tmp_path / name), str(tmp_path / "link.bin"), str(tmp_path / "hard.bin")):
            assert main(["recover", "--ensemble", epath, "--measurements", mpath,
                         "--algorithm", "suppressed", "--out", out]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("randcs recover: --out must not be the --ensemble or "
                                    "--measurements file\n")
        assert {path: (tmp_path / path).read_bytes() for path in before} == before

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
        # the same ensemble written by hand in the retired RCS1 layout (row-major
        # matrices) is refused by its magic, whatever the algorithm; its matrices,
        # transposed into RCS2 sampling buffers, give the support of the original
        _, ens, *_, epath, mpath = fixtures
        stack = np.stack(list(ens.matrices)).astype("<f8")
        rcs1, rcs2 = tmp_path / "ens-rcs1.bin", tmp_path / "ens-rcs2.bin"
        header = struct.pack("<4sQQQQ", b"RCS1", ens.n, ens.k, ens.r0, ens.master_seed)
        rcs1.write_bytes(header + stack.tobytes())
        rcs2.write_bytes(b"RCS2" + header[4:] + stack.transpose(0, 2, 1).tobytes())
        assert main(["recover", "--ensemble", str(rcs1), "--measurements", mpath,
                     "--algorithm", algorithm]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"randcs recover: {rcs1}: ")
        assert "bad magic b'RCS1', expected b'RCS2'" in captured.err
        reports = []
        for path in (epath, str(rcs2)):
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
        # header-only files, each under its own magic: the empty payloads agree
        # with the headers, so the zero field is what the ensemble is refused for
        paths = [tmp_path / "ens.bin", tmp_path / "meas.bin"]
        for path, magic in zip(paths, (b"RCS2", b"RCS1")):
            path.write_bytes(struct.pack("<4sQQQQ", magic, n, k, r0, 23))
        assert main(["recover", "--ensemble", str(paths[0]), "--measurements", str(paths[1]),
                     "--algorithm", "support"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "r0" if r0 == 0 else "k"
        assert captured.err == f"randcs recover: {paths[0]}: need {name} >= 1, got {name}=0\n"

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
