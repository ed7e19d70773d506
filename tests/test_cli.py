"""Command-line interface: exit codes, determinism, output schemas."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pathreg
from pathreg.cli import main

from test_verify import STATIONARY_LEAVES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


class TestExitCodes:
    def test_analyze_ok(self, capsys):
        code, payload, _ = run_json(capsys, "analyze", "-k", "matern(nu=2.5)")
        assert code == 0
        assert payload["per_axis"][0]["order"] == 2.5
        assert payload["per_axis"][0]["sharp"] is True
        assert payload["sobolev_order"] == 2

    def test_analyze_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "analyze", "-k", "matern(nu=-1)")
        assert code == 2
        assert "nu" in err

    def test_unknown_kernel_is_2(self, capsys):
        code, _, err = run(capsys, "analyze", "-k", "bogus(3)")
        assert code == 2
        assert "offset" in err

    # non-finite integers and weights once escaped the parser as an
    # OverflowError (exit 1 with a traceback) or lost their offset
    @pytest.mark.parametrize(
        "kernel, offset",
        [
            ("matern(nu=1.5, dim=1e999)", 19),
            ("wendland(d=1e999, n=1)", 11),
            ("poly(m=1e999)", 7),
            ("feature(family=trig, degree=1e999)", 28),
            ("1e999*se()", 0),
            ("feature(family=bogus, degree=2)", 15),
            ("se() + wendland(d=2, n=0)", 7),
            ("se() * wendland(d=2, n=0)", 7),
        ],
    )
    def test_rejected_value_is_2_at_its_offset(self, capsys, kernel, offset):
        code, out, err = run(capsys, "analyze", "-k", kernel)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f" at offset {offset}\n")
        assert "Traceback" not in err

    def test_usage_error_is_2(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == 2

    def test_wiener_grid_at_zero_is_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            "-k",
            "wiener()",
            "--grid",
            "0:1:17",
            "--count",
            "2",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "w.csv"),
        )
        assert code == 3
        assert "positive" in err

    def test_kernel_dimension_mismatch_is_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sample",
            "-k",
            "se(dim=2)",
            "--grid",
            "0:1:17",
            "--count",
            "2",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert "kernel has dimension 2 but the grid is 1-D" in err

    # a 2-D kernel that is no tensor product takes a dense Gram, 2 GiB on
    # the desk grid; the Gram builder raises here as numpy would there
    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 7.03 KiB for an array with shape (30, 30)",
             "Unable to allocate 7.03 KiB for an array with shape (30, 30)"),
            ("", "an allocation failed"),
        ],
    )
    def test_out_of_memory_is_3(self, capsys, tmp_path, monkeypatch, message, line):
        from pathreg import sampling

        def no_memory(expr, grid):
            raise MemoryError(message)

        monkeypatch.setattr(sampling, "build_gram", no_memory)
        code, out, err = run(
            capsys, "report", "-k", "matern(nu=1.5,dim=2)", "--grid", "0:1:5,0:1:6",
            "--count", "2", "--seed", "1", "--out", str(tmp_path / "m"),
        )
        assert code == 3
        assert out == ""
        assert err == f"error: out of memory: {line}\n"

    def test_verify_pass_is_0(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "-k", "matern(nu=1.5)")
        assert code == 0
        assert payload["verdict"] == "pass"
        assert payload["detected"]["total"] == pytest.approx(1.5, abs=0.15)

    def test_verify_fail_is_1(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "-k", "matern(nu=1.5)", "--tol", "1e-9")
        assert code == 1
        assert payload["verdict"] == "fail"

    def test_verify_log_flag_is_0(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "-k", "matern(nu=1)")
        assert code == 0
        assert payload["verdict"] == "log-flagged"

    # both exited 3 ("only N usable scales") before exact lag derivatives
    @pytest.mark.parametrize("kernel", ["matern(nu=3)", "matern(nu=2,lengthscale=10)"])
    def test_verify_integer_matern_is_0(self, capsys, kernel):
        code, payload, _ = run_json(capsys, "verify", "-k", kernel)
        assert code == 0
        assert payload["verdict"] == "log-flagged"
        assert "note" not in payload

    def test_verify_beyond_probe_range_is_1(self, capsys, monkeypatch):
        from pathreg import verify

        monkeypatch.setattr(verify, "_WINDOW", (4, 6))
        code, payload, _ = run_json(capsys, "verify", "-k", "matern(nu=2.5)")
        assert code == 1
        assert payload["verdict"] == "fail"
        assert payload["note"].startswith("beyond probe range: ")

    def test_log_tolerance_follows_tol(self, capsys):
        # a log-corrected target is met within max(--tol, 0.25)
        code, payload, _ = run_json(
            capsys, "verify", "-k", "matern(nu=2,lengthscale=10)", "--tol", "0.05"
        )
        assert code == 0
        assert payload["verdict"] == "log-flagged"

    # extreme lengthscales once overflowed (OverflowError, ZeroDivisionError)
    # in the deviation units or the lag jets: a traceback and exit 1
    @pytest.mark.parametrize(
        "kernel, verdict",
        [
            ("se(lengthscale=1e52)", "pass"),
            ("se(lengthscale=1e-52)", "pass"),
            ("rq(a=1,lengthscale=1e-60)", "pass"),
            ("matern(nu=1.5,lengthscale=1e-170)", "fail"),
            ("matern(nu=1.5,lengthscale=1e300)", "fail"),
        ],
    )
    def test_extreme_lengthscale_gets_a_verdict(self, capsys, kernel, verdict):
        code, payload, err = run_json(capsys, "verify", "-k", kernel)
        assert code == (0 if verdict == "pass" else 1)
        assert payload["verdict"] == verdict
        assert err == ""

    # a negative order cap, or a tolerance that is infinite or NaN, made
    # every verdict meaningless (exit 0 with "smooth_to_order": -2, every
    # kernel passing, or a passing kernel failing)
    @pytest.mark.parametrize(
        "flags", [("--max-order", "-2"), ("--max-order", "-1"), ("--tol", "nan"),
                  ("--tol", "inf"), ("--tol", "-0.1")]
    )
    def test_meaningless_verify_config_is_2(self, capsys, flags):
        code, out, err = run(capsys, "verify", "-k", "se()", *flags)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: parameter ")

    def test_arithmetic_error_is_3(self, capsys, monkeypatch):
        # verify imports verify_regularity from its module when it runs
        import pathreg.verify

        def overflow(expr, cfg=None):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(pathreg.verify, "verify_regularity", overflow)
        code, out, err = run(capsys, "verify", "-k", "se()")
        assert code == 3
        assert out == ""
        assert err == (
            "error: arithmetic failure (OverflowError): (34, 'Numerical result out of range')\n"
        )

    # a non-finite grid once hung: its lag column is NaN, and the jitter
    # ladder never passed its budget
    @pytest.mark.parametrize("grid", ["0:inf:9", "-1e308:1e308:9", "0:1:5,0:inf:5", "nan:1:5"])
    @pytest.mark.parametrize("command", ["sample", "estimate", "report"])
    def test_non_finite_grid_is_3(self, tmp_path, command, grid):
        src = os.path.dirname(os.path.dirname(pathreg.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["-k", "se()", f"--grid={grid}", "--count", "50", "--seed", "1"]
        if command != "estimate":
            argv += ["--out", str(tmp_path / "g")]
        proc = subprocess.run(
            [sys.executable, "-m", "pathreg.cli", command, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: axis ")
        assert list(tmp_path.iterdir()) == []

    # malformed axis text once exited 3, some of it with Python's own
    # message (invalid literal for int() with base 10: '5.5')
    @pytest.mark.parametrize(
        "grid, axis",
        [("0:1", "0:1"), ("0:1:5.5", "0:1:5.5"), ("a:1:9", "a:1:9"), ("0:1:9,0:1", "0:1"),
         ("0:1:9:2", "0:1:9:2"), ("0:1:", "0:1:"), ("", "")],
    )
    @pytest.mark.parametrize("command", ["sample", "estimate", "report"])
    def test_malformed_grid_is_2(self, capsys, tmp_path, command, grid, axis):
        argv = ["-k", "se()", f"--grid={grid}", "--count", "50", "--seed", "1"]
        if command != "estimate":
            argv += ["--out", str(tmp_path / "g")]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: grid axis {axis!r} is not of the form start:stop:count "
            "(real start and stop, integer count)\n"
        )
        assert list(tmp_path.iterdir()) == []

    # an axis that parses but is no grid stays a runtime error
    @pytest.mark.parametrize(
        "grid, message",
        [("1:0:5", "axis needs start < stop"), ("0:1:1", "axis needs at least 2 points"),
         ("0:1:-3", "axis needs at least 2 points")],
    )
    def test_invalid_axis_is_3(self, capsys, tmp_path, grid, message):
        code, out, err = run(capsys, "sample", "-k", "se()", f"--grid={grid}", "--count", "50",
                             "--seed", "1", "--out", str(tmp_path / "g"))
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        assert line.startswith(f"error: {message}")

    # the message once named the writer's temp file, sub/dir/s.csv.tmp
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sample", "--out", "sub/dir/s"], "sub/dir/s.csv"),
            (["report", "--out", "sub/dir/r"], "sub/dir/r_samples.csv"),
            (["report", "--no-sample", "--out", "sub/dir/r"], "sub/dir/r.json"),
        ],
    )
    def test_missing_directory_names_the_file(self, capsys, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        grid = ["--grid", "0:1:33", "--count", "50", "--seed", "1"]
        code, out, err = run(capsys, argv[0], "-k", "se()", *grid, *argv[1:])
        assert (code, out) == (3, "")
        assert err == f"error: [Errno 2] No such file or directory: {named!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestAnalyzeExamples:
    def test_wiener(self, capsys):
        code, payload, _ = run_json(capsys, "analyze", "-k", "wiener()")
        assert code == 0
        assert payload["per_axis"][0] == {
            "order": 0.5,
            "sharp": True,
            "log_corrected": False,
        }

    def test_smooth_order_is_inf_string(self, capsys):
        _, payload, _ = run_json(capsys, "analyze", "-k", "se()")
        assert payload["per_axis"][0]["order"] == "inf"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "-k", "wiener()", "--format", "csv")
        assert code == 0
        assert "per_axis.0.order,0.5" in out.replace(" ", "")

    # affine(a=0, b) maps every point to b, so the warped paths are constant
    # and the order is infinite; it once reported the child's order
    @pytest.mark.parametrize("leaf", [leaf for leaf, _order, _log in STATIONARY_LEAVES])
    def test_constant_affine_warp_is_smooth(self, capsys, leaf):
        text = f"warp({leaf}lengthscale=1), affine(a=0, b=0.5))"
        code, payload, _ = run_json(capsys, "analyze", "-k", text)
        assert code == 0
        assert payload["per_axis"] == [{"order": "inf", "sharp": True, "log_corrected": False}]
        assert payload["derivation"][-2].startswith("warp(affine): a = 0 maps every point to b")
        code, payload, _ = run_json(capsys, "verify", "-k", text)
        assert code == 0
        assert payload["verdict"] == "pass" and payload["smooth_to_order"] == 3


class TestSample:
    def test_golden_determinism(self, capsys, tmp_path):
        args = ["sample", "-k", "se()", "--grid", "0:1:65", "--count", "3", "--seed", "42"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "x,s0,s1,s2"

    def test_2d_tensor_schema(self, capsys, tmp_path):
        out = tmp_path / "field.csv"
        code, _, _ = run(
            capsys,
            "sample",
            "-k",
            "tensor(wendland(d=1,n=0), wendland(d=1,n=1))",
            "--grid",
            "0:1:16,0:1:16",
            "--count",
            "2",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,s0,s1"
        assert len(lines) == 1 + 256
        sidecar = json.loads((tmp_path / "field.json").read_text())
        assert sidecar["grid"]["dim"] == 2
        assert sidecar["seed"] == 7
        assert set(sidecar["twin"]) == {"csv_sha256", "npy_sha256", "sidecar_sha256"}
        assert np.load(tmp_path / "field.npy").shape == (2, 256)

    # argparse once read a --grid value that starts with a minus sign as a
    # flag: "expected one argument", exit 2
    @pytest.mark.parametrize(
        "kernel, grid, first",
        [("se()", "-1:1:65", ["-1"]), ("tensor(se(), matern(nu=1.5))", "-1:1:9,-2:0:9", ["-1", "-2"])],
    )
    def test_negative_grid_start(self, capsys, tmp_path, kernel, grid, first):
        out = tmp_path / "neg.csv"
        code, _, err = run(capsys, "sample", "-k", kernel, "--grid", grid, "--count", "3",
                           "--seed", "1", "--out", str(out))
        assert (code, err) == (0, "")
        row = out.read_text().splitlines()[1].split(",")
        assert row[: len(first)] == first

    def test_grid_without_a_value_is_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "sample", "-k", "se()", "--grid", "--count", "3",
                             "--seed", "1", "--out", str(tmp_path / "g"))
        assert (code, out) == (2, "")
        assert "argument --grid: expected one argument" in err
        assert list(tmp_path.iterdir()) == []

    def test_prints_the_csv_and_the_sidecar(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sample", "-k", "se()", "--grid", "0:1:9", "--count", "2", "--seed", "1",
            "--out", str(tmp_path / "p"),
        )
        assert code == 0
        assert out.splitlines() == [str(tmp_path / "p.csv"), str(tmp_path / "p.json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p.json", "p.npy"]


class TestEstimate:
    def test_end_to_end_matern_half(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "estimate",
            "-k",
            "matern(nu=0.5)",
            "--grid",
            "0.25:1.25:2049",
            "--count",
            "100",
            "--seed",
            "42",
        )
        assert code == 0
        assert payload["s_hat"] == pytest.approx(0.5, abs=0.1)
        assert payload["m_used"] == 1

    def test_from_samples_file(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        main(
            [
                "sample",
                "-k",
                "matern(nu=0.5)",
                "--grid",
                "0.25:1.25:2049",
                "--count",
                "100",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code, payload, _ = run_json(capsys, "estimate", "--samples", str(out))
        assert code == 0
        assert payload["s_hat"] == pytest.approx(0.5, abs=0.1)

    def test_file_estimate_equals_inline(self, capsys, tmp_path):
        # the sidecar carries the jitter that sets the estimator's noise floor;
        # without it the smooth se() paths get a finite s_hat
        draw = ["-k", "se()", "--grid", "0.25:1.25:257", "--count", "50", "--seed", "42"]
        out = tmp_path / "se.csv"
        assert main(["sample", *draw, "--out", str(out)]) == 0
        capsys.readouterr()
        _, from_file, _ = run_json(capsys, "estimate", "--samples", str(out))
        _, inline, _ = run_json(capsys, "estimate", *draw)
        assert from_file.pop("samples") == str(out)
        assert inline.pop("kernel") == "se()"
        assert from_file == inline
        assert "lower_bound" in inline

    def test_file_estimate_equals_inline_2d(self, capsys, tmp_path):
        draw = [
            "-k", "tensor(matern(nu=0.5), matern(nu=1.5))",
            "--grid", "0:1:48,0:1:40", "--count", "50", "--seed", "7",
        ]
        out = tmp_path / "field.csv"
        assert main(["sample", *draw, "--out", str(out)]) == 0
        capsys.readouterr()
        _, from_file, _ = run_json(capsys, "estimate", "--samples", str(out))
        _, inline, _ = run_json(capsys, "estimate", *draw)
        assert from_file.pop("samples") == str(out)
        assert inline.pop("kernel") == "tensor(matern(nu=0.5), matern(nu=1.5))"
        assert from_file == inline
        assert [axis["axis"] for axis in inline["axes"]] == [0, 1]

    # a 3-draw field once gave both axis estimates and exit 0; a 1-D file
    # of 3 draws exits 3
    def test_file_estimate_of_too_few_fields_is_3(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", "-k", "tensor(matern(nu=0.5), matern(nu=1.5))",
                     "--grid", "0:1:64,0:1:64", "--count", "3", "--seed", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "estimate", "--samples", str(out))
        assert code == 3
        assert out == ""
        assert err.strip() == "error: need at least 50 draws for a stable estimate, got 3"

    # the twin only saves the parse: the output is the same without it
    @pytest.mark.parametrize(
        "kernel, grid",
        [("matern(nu=0.5)", "0.25:1.25:513"), ("tensor(matern(nu=0.5), matern(nu=1.5))", "0:1:48,0:1:40")],
    )
    def test_file_estimate_is_the_same_without_the_twin(self, capsys, tmp_path, kernel, grid):
        prefix = str(tmp_path / "r")
        code, report, _ = run_json(capsys, "report", "-k", kernel, "--grid", grid, "--count", "50",
                                   "--seed", "4", "--out", prefix)
        assert code == 0
        code, with_twin, _ = run(capsys, "estimate", "--samples", f"{prefix}_samples.csv")
        assert code == 0
        os.remove(f"{prefix}_samples.npy")
        code, without, _ = run(capsys, "estimate", "--samples", f"{prefix}_samples.csv")
        assert code == 0
        assert with_twin == without
        from_file = json.loads(with_twin)
        assert from_file.pop("samples") == f"{prefix}_samples.csv"
        assert from_file == report["estimate"]
        assert report["files"] == {"samples": f"{prefix}_samples.csv",
                                   "surface": f"{prefix}_surface.csv"}

    # a NaN once saturated every order ("lower_bound": 1.0) and an infinity
    # read as degenerate; both exited 0
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_3(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.csv"
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.standard_normal((257, 60)), axis=0)
        rows = ["x," + ",".join(f"s{i}" for i in range(60))]
        for i, row in enumerate(values):
            cells = [f"{v:.17g}" for v in row]
            if i == 100:
                cells[17] = bad
            rows.append(",".join([f"{i / 256:.17g}", *cells]))
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "estimate", "--samples", str(path))
        assert code == 3
        assert out == ""
        assert err.strip() == "error: samples hold a non-finite value"

    def test_degenerate_constant_file(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        header = "x," + ",".join(f"s{i}" for i in range(60))
        rows = [header]
        for i in range(65):
            rows.append(",".join([f"{i / 64:.17g}"] + ["1.5"] * 60))
        path.write_text("\n".join(rows) + "\n")
        code, payload, _ = run_json(capsys, "estimate", "--samples", str(path))
        assert code == 0
        assert payload["degenerate"] is True

    @pytest.mark.parametrize("middle", [True, False])
    def test_comment_line_in_file_is_3(self, capsys, tmp_path, middle):
        path = tmp_path / "noted.csv"
        rows = ["x,s0,s1"] + [f"{i / 8:.17g},{i},{-i}" for i in range(9)]
        rows.insert(5 if middle else len(rows), "# note")
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "estimate", "--samples", str(path))
        assert code == 3
        assert f"line {6 if middle else 11} of the samples file is a comment" in err

    # pytest records warnings instead of printing them, so the CLI runs in
    # its own process to show what reaches the user's stderr; a blank line
    # is skipped (one draw is then too few), a non-ASCII space is a bad row
    @pytest.mark.parametrize(
        "blank, message",
        [
            ("", "need at least 50 draws for a stable estimate, got 1"),
            ("  ", "need at least 50 draws for a stable estimate, got 1"),
            ("\u00a0", ""),
            ("\x1c", ""),
        ],
    )
    def test_blank_line_in_file_warns_nothing(self, tmp_path, blank, message):
        path = tmp_path / "spaced.csv"
        path.write_bytes(f"x,s0\r\n0,1\r\n{blank}\r\n1,2\r\n2,5\r\n".encode())
        src = os.path.dirname(os.path.dirname(pathreg.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "pathreg.cli", "estimate", "--samples", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert "Warning" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {message}")

    def test_requires_source(self, capsys):
        code, _, err = run(capsys, "estimate")
        assert code == 2

    # the three drawing commands take their grid, count and seed alike: a
    # missing one is a usage error, and a given zero count is not missing;
    # report rejects a count below 1 before it verifies
    @pytest.mark.parametrize("command", ["sample", "estimate", "report"])
    def test_draw_request(self, capsys, tmp_path, monkeypatch, command):
        import pathreg.verify

        def unreachable(expr, cfg=None):
            raise AssertionError("verify ran before the count was checked")

        monkeypatch.setattr(pathreg.verify, "verify_regularity", unreachable)
        out = ["--out", str(tmp_path / "d")] if command != "estimate" else []
        code, _, err = run(capsys, command, "-k", "se()", "--count", "2")
        flags = "--grid, --seed, --out" if command == "sample" else "--grid, --seed"
        assert (code, err) == (2, f"error: missing required flags: {flags}\n")
        for count in ("0", "-5"):
            for profile in ([], ["--profile", "desk"]):
                code, _, err = run(
                    capsys, command, "-k", "se()", "--grid", "0:1:9", "--count", count,
                    "--seed", "1", *out, *profile,
                )
                assert (code, err) == (3, "error: count must be >= 1\n")

    def test_desk_profile_pins_defaults(self, capsys, tmp_path):
        # the desk profile supplies grid/count/seed so CI runs reproduce the
        # acceptance table without spelling the parameters out
        out = tmp_path / "desk.csv"
        code, _, _ = run(
            capsys, "sample", "-k", "wiener()", "--profile", "desk",
            "--count", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4097
        sidecar = json.loads((tmp_path / "desk.json").read_text())
        assert sidecar["seed"] == 42
        assert sidecar["grid"]["axes"][0] == {"start": 0.25, "stop": 1.25, "count": 4097}

    def test_tensor_pipeline_axiswise(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "estimate",
            "-k",
            "tensor(wendland(d=1,n=0), wendland(d=1,n=1))",
            "--grid",
            "0:1:128,0:1:128",
            "--count",
            "100",
            "--seed",
            "42",
        )
        assert code == 0
        axes = payload["axes"]
        assert axes[0]["s_hat"] == pytest.approx(0.5, abs=0.12)
        assert axes[1]["s_hat"] == pytest.approx(1.5, abs=0.2)


class TestReport:
    def test_combined_report(self, capsys, tmp_path):
        prefix = str(tmp_path / "rep")
        code, payload, _ = run_json(
            capsys,
            "report",
            "-k",
            "tensor(wendland(d=1,n=0), wendland(d=1,n=1))",
            "--grid",
            "0:1:32,0:1:32",
            "--count",
            "60",
            "--seed",
            "3",
            "--out",
            prefix,
        )
        assert code == 0
        assert payload["analyze"]["per_axis"][0]["order"] == 0.5
        assert payload["verify"]["verdict"] in ("pass", "log-flagged")
        assert "axes" in payload["estimate"]
        surface = (tmp_path / "rep_surface.csv").read_text().splitlines()
        assert surface[0] == "x,y,k"
        assert len(surface) == 1 + 32 * 32
        samples = (tmp_path / "rep_samples.csv").read_text().splitlines()
        assert samples[0].startswith("x,y,s0")
        combined = json.loads((tmp_path / "rep.json").read_text())
        assert combined["kernel"] == payload["kernel"]

    def test_report_agrees_with_standalone_verify(self, capsys, tmp_path):
        code_r, payload_r, _ = run_json(
            capsys,
            "report",
            "-k",
            "matern(nu=1.5)",
            "--no-sample",
            "--out",
            str(tmp_path / "m"),
        )
        code_v, payload_v, _ = run_json(capsys, "verify", "-k", "matern(nu=1.5)")
        assert code_r == code_v == 0
        assert payload_r["verify"]["verdict"] == payload_v["verdict"]
        assert payload_r["verify"]["detected"]["n"] == payload_v["detected"]["n"]

    # the draw request is checked before verify runs, with sample's messages
    @pytest.mark.parametrize(
        "flags, code",
        [(["--grid", "0:1:5.5", "--count", "60"], 2), (["--grid", "0:1:9"], 2),
         (["--grid", "1:0:5", "--count", "60"], 3)],
    )
    def test_draw_request_checked_before_verify(self, capsys, tmp_path, monkeypatch, flags, code):
        import pathreg.verify

        def unreachable(expr, cfg=None):
            raise AssertionError("verify ran before the draw request was checked")

        monkeypatch.setattr(pathreg.verify, "verify_regularity", unreachable)
        argv = ["-k", "matern(nu=1.5)", *flags, "--seed", "1", "--out", str(tmp_path / "bad")]
        expected = run(capsys, "sample", *argv)
        assert run(capsys, "report", *argv) == expected
        assert expected[:2] == (code, "")
        assert list(tmp_path.iterdir()) == []

    def test_no_sample_skips_estimation(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            "report",
            "-k",
            "se()",
            "--no-sample",
            "--out",
            str(tmp_path / "s"),
        )
        assert code == 0
        assert payload["estimate"] is None
        assert "no-sample" in payload["estimate_skipped"]
        assert payload["files"] == {}
