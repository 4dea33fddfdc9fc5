"""CLI surface: subcommands, exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from momentpool import cli, smp
from momentpool.cli import main
from momentpool.smp import MomentSpec, smp_forward
from momentpool.synth import PATTERNS, checkerboard, make_pattern, ramp
from momentpool.tensor import Tensor, tensor_read, tensor_write
from momentpool.windows import PoolSpec
from momentpool.toytrain import ToyTrainConfig, run_toytrain

from childenv import child_env

CHECKER_MOMENTS = [5 / 9, 20 / 81, -20 / 729, 3780 / 59049]


# a uniform-noise `generate` that writes nowhere
NOISE = ("generate", "--pattern", "uniform-noise", "--shape", "1,1,2,2", "--seed", "1",
         "--out", os.devnull)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGenerate:
    def test_checkerboard_file(self, tmp_path, capsys):
        out = tmp_path / "cb.tensor"
        rc, _, _ = run_cli(capsys, "generate", "--pattern", "checkerboard",
                           "--shape", "1,1,3,3", "--a", "1", "--b", "0",
                           "--out", str(out))
        assert rc == 0
        got = tensor_read(out)
        assert got == checkerboard((1, 1, 3, 3), 1.0, 0.0)
        assert got.nchw[0, 0].tolist() == [[1, 0, 1], [0, 1, 0], [1, 0, 1]]

    def test_solid_file(self, tmp_path, capsys):
        out = tmp_path / "solid.tensor"
        rc, _, _ = run_cli(capsys, "generate", "--pattern", "solid",
                           "--shape", "1,1,3,3", "--a", "7", "--out", str(out))
        assert rc == 0
        assert tensor_read(out).data.tolist() == [7.0] * 9

    def test_ramp_file(self, tmp_path, capsys):
        out = tmp_path / "ramp.tensor"
        rc, _, _ = run_cli(capsys, "generate", "--pattern", "ramp",
                           "--shape", "1,1,2,2", "--out", str(out))
        assert rc == 0
        assert tensor_read(out).nchw[0, 0].tolist() == [[0, 1], [2, 3]]

    def test_noise_requires_seed(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "generate", "--pattern", "uniform-noise",
                             "--shape", "2,2", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "seed" in err

    def test_noise_within_range(self, tmp_path, capsys):
        out = tmp_path / "noise.tensor"
        rc, _, _ = run_cli(capsys, "generate", "--pattern", "uniform-noise",
                           "--shape", "1,2,8,8", "--a", "-3", "--b", "5",
                           "--seed", "9", "--out", str(out))
        assert rc == 0
        vals = tensor_read(out).data
        assert vals.min() >= -3 and vals.max() < 5

    def test_unknown_pattern_names_the_choices(self):
        with pytest.raises(ValueError, match="bogus") as exc:
            make_pattern("bogus", (1, 1, 2, 2))
        assert all(name in str(exc.value) for name in PATTERNS)

    def test_bad_shape_is_usage_error(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "generate", "--pattern", "solid",
                             "--shape", "0,3", "--out", str(tmp_path / "x"))
        assert rc == 2 and "shape" in err


class TestPool:
    def test_forward_traced_peak_stays_small(self):
        """smp_forward on the benchmark's `pool` spec (1x3x256x256, 3x3 s2 p1,
        n=4 layer) peaks at eight (1, 3, 128, 128) maps, 3.0 MiB: the four
        statistics and the output. A map the statistics cache held on top
        of those would push it past the bound."""
        rng = np.random.default_rng(0)
        x = Tensor((1, 3, 256, 256), rng.uniform(-1, 1, 3 * 256 * 256))
        pool, spec = PoolSpec.square(3, 2, 1), MomentSpec(n=4, norm="layer")
        smp_forward(x, pool, spec)  # warm: the walk is cached per geometry
        tracemalloc.start()
        try:
            smp_forward(x, pool, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 2 ** 20

    def _checker_file(self, tmp_path, capsys):
        src = tmp_path / "cb.tensor"
        run_cli(capsys, "generate", "--pattern", "checkerboard",
                "--shape", "1,1,3,3", "--out", str(src))
        return src

    def test_global_moments_with_unsafe_flag(self, tmp_path, capsys):
        src = self._checker_file(tmp_path, capsys)
        dst = tmp_path / "out.tensor"
        rc, out, _ = run_cli(capsys, "pool", "--input", str(src),
                             "--out", str(dst), "--kernel", "global",
                             "--n", "4", "--norm", "none", "--unsafe-no-norm")
        assert rc == 0
        assert "1x1x3x3 -> 1x4x1x1" in out
        np.testing.assert_allclose(tensor_read(dst).data, CHECKER_MOMENTS,
                                   rtol=0, atol=1e-15)

    def test_order1_equals_sap_mode(self, tmp_path, capsys):
        src = tmp_path / "r.tensor"
        tensor_write(ramp((1, 2, 6, 6)), src)
        a, b = tmp_path / "a.tensor", tmp_path / "b.tensor"
        args = ["--input", str(src), "--kernel", "2", "--stride", "2"]
        assert run_cli(capsys, "pool", *args, "--out", str(a), "--n", "1")[0] == 0
        assert run_cli(capsys, "pool", *args, "--out", str(b),
                       "--mode", "sap")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_high_order_without_norm_guard(self, tmp_path, capsys):
        src = self._checker_file(tmp_path, capsys)
        rc, _, err = run_cli(capsys, "pool", "--input", str(src),
                             "--out", str(tmp_path / "o"), "--kernel", "global",
                             "--n", "3", "--norm", "none")
        assert rc == 2
        assert "unsafe" in err

    def test_missing_input_file(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "pool", "--input", str(tmp_path / "nope"),
                             "--out", str(tmp_path / "o"), "--kernel", "2")
        assert rc == 2 and "error" in err

    def test_geometry_error_surfaces(self, tmp_path, capsys):
        src = self._checker_file(tmp_path, capsys)
        rc, _, err = run_cli(capsys, "pool", "--input", str(src),
                             "--out", str(tmp_path / "o"), "--kernel", "5")
        assert rc == 2 and "error" in err

    def test_window_with_no_input_cell_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "one.tensor"
        tensor_write(Tensor((1, 1, 1, 1), [1.0]), src)
        rc, _, err = run_cli(capsys, "pool", "--input", str(src),
                             "--out", str(tmp_path / "o"), "--kernel", "2x1",
                             "--pad", "3x0", "--dilation", "3x1")
        assert rc == 2 and "no input cell on input 1x1" in err
        assert not (tmp_path / "o").exists()

    def test_rectangular_kernel_and_layer_norm(self, tmp_path, capsys):
        src = tmp_path / "n.tensor"
        run_cli(capsys, "generate", "--pattern", "uniform-noise",
                "--shape", "2,3,8,6", "--seed", "4", "--a", "-1", "--b", "1",
                "--out", str(src))
        dst = tmp_path / "o.tensor"
        rc, out, _ = run_cli(capsys, "pool", "--input", str(src),
                             "--out", str(dst), "--kernel", "4x3",
                             "--stride", "2x3", "--n", "4", "--norm", "layer")
        assert rc == 0
        assert "2x3x8x6 -> 2x12x3x2" in out


class TestGradcheckCommand:
    def test_layer_norm_passes(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "layer",
                             "--shape", "2,3,8,8", "--seed", "5")
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_rel_error"] < 1e-6
        assert report["n_checked"] == 2 * 3 * 8 * 8

    def test_linear_case_tight_tolerance(self, capsys):
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "1", "--shape",
                             "1,2,6,6", "--seed", "3", "--tol", "1e-9",
                             "--kernel", "2", "--stride", "2", "--pad", "0")
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_perturbed_backward_fails(self, capsys):
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "2", "--shape",
                             "1,2,6,6", "--seed", "3", "--perturb-backward")
        assert rc == 1
        assert json.loads(out)["passed"] is False

    def test_max_norm_checks_against_declared_surrogate(self, capsys):
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "max",
                             "--shape", "1,3,6,6", "--seed", "8")
        assert rc == 0 and json.loads(out)["passed"] is True

    def test_alternative_norm_groupings(self, capsys):
        for axis in ("joint", "location"):
            rc, out, _ = run_cli(capsys, "gradcheck", "--n", "4", "--norm",
                                 "layer", "--norm-axis", axis, "--shape",
                                 "1,3,6,6", "--seed", "6")
            assert rc == 0 and json.loads(out)["passed"] is True

    def test_traced_peak_stays_small(self, capsys):
        """The stacked probes are bounded by bytes: a warm in-process
        gradcheck of the benchmark's spec peaks at no more than 1.5 MiB."""
        argv = ("gradcheck", "--shape", "2,3,8,8", "--n", "4", "--norm", "layer")
        assert run_cli(capsys, *argv)[0] == 0  # warm: caches and imports
        tracemalloc.start()
        try:
            rc = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        assert peak <= 1.5 * 2 ** 20

    def test_batch_norm_needs_batch(self, capsys):
        rc, _, err = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "batch",
                             "--shape", "1,2,6,6", "--seed", "2")
        assert rc == 2 and "batch" in err
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "batch",
                             "--shape", "4,2,6,6", "--seed", "2")
        assert rc == 0 and json.loads(out)["passed"] is True

    def test_batch_of_one_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "gradcheck", "--shape", "1,3,8,8",
                               "--n", "3", "--norm", "batch")
        assert (rc, out) == (2, "")
        assert "batch size >= 2" in err


# the JSON line gradcheck prints on 2,3,8,8 for each set of flags, and its
# exit code: the probes' summation order is fixed, so each report is a
# fixed function of the forward's and the backward's bits
GRADCHECK_REPORTS = {
    "layer": (
        ("--n", "4", "--norm", "layer"), 0,
        '{"max_rel_error":1.538285733873744e-10,"max_abs_error":3.369376555539816e-09'
        ',"worst_index":236,"n_checked":384,"passed":true}'),
    "layer seed 5": (
        ("--n", "4", "--norm", "layer", "--seed", "5"), 0,
        '{"max_rel_error":2.5006934914635193e-10,"max_abs_error":4.583766255450428e-09'
        ',"worst_index":82,"n_checked":384,"passed":true}'),
    "max location strided": (
        ("--n", "4", "--norm", "max", "--norm-axis", "location",
         "--stride", "2", "--pad", "1"), 0,
        '{"max_rel_error":1.8328675079042925e-10,"max_abs_error":1.1803544808230981e-09'
        ',"worst_index":327,"n_checked":384,"passed":true}'),
    "batch": (
        ("--n", "4", "--norm", "batch"), 0,
        '{"max_rel_error":2.0974479374907014e-10,"max_abs_error":3.95226651406233e-09'
        ',"worst_index":314,"n_checked":384,"passed":true}'),
    "max perturbed": (
        ("--n", "4", "--norm", "max", "--perturb-backward"), 1,
        '{"max_rel_error":0.0009990009657097185,"max_abs_error":0.006306703873257824'
        ',"worst_index":28,"n_checked":384,"passed":false}'),
    "n3 max joint std": (
        ("--n", "3", "--norm", "max", "--norm-axis", "joint",
         "--standardize-pre-norm"), 0,
        '{"max_rel_error":3.743751112269622e-10,"max_abs_error":8.408401752646455e-10'
        ',"worst_index":235,"n_checked":384,"passed":true}'),
}


@pytest.mark.parametrize("name", list(GRADCHECK_REPORTS))
def test_gradcheck_report_bytes_are_frozen(name, capsys):
    flags, code, line = GRADCHECK_REPORTS[name]
    assert run_cli(capsys, "gradcheck", "--shape", "2,3,8,8", *flags) == (
        code, line + "\n", "")


class TestBenchCommand:
    def test_reports_costs_and_ratio(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--shape", "1,4,16,16",
                             "--repeats", "2")
        assert rc == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert 2.5 <= report["extra_ratio_smp4_smp2"] <= 3.5
        assert report["op_cost"]["sap"]["extra_vs_sap"] == 0
        assert report["op_cost"]["smp4"]["mul_add_count"] > \
            report["op_cost"]["smp2"]["mul_add_count"]

    def test_timing_lines_present(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--shape", "1,2,12,12",
                             "--kernel", "4", "--stride", "4", "--repeats", "1")
        assert rc == 0
        for name in ("sap:", "smp2:", "smp4:"):
            assert name in out

    def test_wall_ratio_on_global_pooling_is_loose_bounded(self, capsys):
        # deliberately loose: the order-4 pass does a few times the work of
        # the plain average, never an order of magnitude more
        rc, out, _ = run_cli(capsys, "bench", "--shape", "1,4,128,128",
                             "--repeats", "5")
        assert rc == 0
        line = next(l for l in out.splitlines()
                    if l.startswith("wall_ratio_smp4_sap="))
        assert float(line.split("=")[1]) < 10.0

    def test_wall_ratio_survives_a_load_burst(self, capsys, monkeypatch):
        # fake clock: a sap forward costs 1 unit, smp2 2 and smp4 4, and the
        # last third of all forward calls run 10x slower, as under a burst of
        # load; the burst must not land on one variant alone
        repeats = 9
        total = 3 * (repeats + 1)  # one warmup per variant
        clock = {"now": 0, "calls": 0}

        def charge(units):
            clock["calls"] += 1
            slow = 10 if clock["calls"] > total - total // 3 else 1
            clock["now"] += 1000 * units * slow
            return ramp((1, 1, 1, 1))

        monkeypatch.setattr("momentpool.cli.smp_forward",
                            lambda x, pool, spec, **_: charge(spec.n))
        monkeypatch.setattr("time.perf_counter_ns", lambda: clock["now"])
        rc, out, _ = run_cli(capsys, "bench", "--shape", "1,2,8,8",
                             "--repeats", str(repeats))
        assert rc == 0 and clock["calls"] == total
        line = next(l for l in out.splitlines()
                    if l.startswith("wall_ratio_smp4_sap="))
        assert float(line.split("=")[1]) == pytest.approx(4.0, abs=0.5)


class TestToytrainCommand:
    def test_report_schema(self, capsys):
        rc, out, _ = run_cli(capsys, "toytrain", "--seed", "17", "--steps", "20",
                             "--lr", "0.0005", "--n", "1", "--norm", "none",
                             "--feature-shape", "2,8,8")
        assert rc == 0
        report = json.loads(out)
        assert set(report) == {"step_of_first_nonfinite", "final_loss",
                               "loss_curve"}
        assert report["step_of_first_nonfinite"] is None
        assert len(report["loss_curve"]) == 20
        assert report["final_loss"] < report["loss_curve"][0]

    def test_nonfinite_encoded_as_marker(self, capsys):
        rc, out, _ = run_cli(capsys, "toytrain", "--seed", "17", "--steps",
                             "200", "--lr", "0.0005", "--n", "4", "--norm",
                             "none", "--unsafe-no-norm",
                             "--feature-shape", "2,8,8")
        assert rc == 0
        report = json.loads(out)  # strict JSON: non-finite become strings
        bad = report["step_of_first_nonfinite"]
        assert bad is not None and bad <= 200
        assert isinstance(report["final_loss"], str)

    def test_default_run_trains_through(self, capsys):
        rc, out, _ = run_cli(capsys, "toytrain", "--seed", "17")
        assert rc == 0
        assert out.strip() == run_toytrain(ToyTrainConfig(seed=17)).to_json()
        report = json.loads(out)
        assert report["step_of_first_nonfinite"] is None
        assert report["final_loss"] < report["loss_curve"][0]

    def test_guard_applies(self, capsys):
        rc, _, err = run_cli(capsys, "toytrain", "--seed", "1", "--n", "4",
                             "--norm", "none")
        assert rc == 2 and "unsafe" in err

    def test_non_finite_eps_norm_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "layer",
                             "--eps-norm", "nan", "--shape", "1,1,4,4")
        assert rc == 2 and "eps_norm" in err
        rc, _, err = run_cli(capsys, "toytrain", "--seed", "1", "--steps", "1",
                             "--eps-norm", "inf")
        assert rc == 2 and "eps_norm" in err

    @pytest.mark.parametrize("args, name", [
        (("gradcheck", "--shape", "1,1,4,4", "--step", "nan"), "step size"),
        (("gradcheck", "--shape", "1,1,4,4", "--tol", "nan"), "tol"),
        (("toytrain", "--seed", "1", "--steps", "1", "--lr", "nan"), "lr"),
        (("toytrain", "--seed", "1", "--steps", "1", "--input-scale", "inf"),
         "input_scale"),
        *(((*NOISE, f"--a={a}", f"--b={b}"), bound)
          for a, b, bound in [("nan", "1", "lo"), ("0", "inf", "hi"),
                              ("-1e308", "1e308", "hi - lo")]),
    ])
    def test_non_finite_numeric_flag_is_usage_error(self, capsys, args, name):
        rc, out, err = run_cli(capsys, *args)
        assert rc == 2 and f"{name} must be finite" in err and out == ""


@pytest.mark.parametrize("args, flag", [
    (("bench", "--shape", "1,1,4,4", "--repeats", "0"), "--repeats"),
    (("bench", "--shape", "1,1,4,4", "--repeats", "-3"), "--repeats"),
    (("pool", "--input", "{src}", "--out", "{dst}", "--kernel", "3x3x3"),
     "--kernel"),
    (("gradcheck", "--shape", "a,b"), "--shape"),
    (("toytrain", "--seed", "1", "--feature-shape", "a,b"), "--feature-shape"),
    (("pool", "--input", "{src}", "--out", "{dst}", "--stride", "1xq"),
     "--stride"),
])
def test_usage_errors_name_the_flag(tmp_path, capsys, args, flag):
    """Bad flag values exit 2 before any output and name the flag."""
    src = tmp_path / "in.tensor"
    tensor_write(checkerboard((1, 1, 4, 4)), src)
    argv = [a.format(src=src, dst=tmp_path / "out.tensor") for a in args]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith(f"error: {flag} ")


class TestDeterminism:
    """Identical invocations must produce byte-identical files and reports."""

    def test_generate_and_pool_bytes(self, tmp_path, capsys):
        outs = []
        for tag in ("one", "two"):
            src = tmp_path / f"{tag}.src"
            dst = tmp_path / f"{tag}.dst"
            run_cli(capsys, "generate", "--pattern", "uniform-noise",
                    "--shape", "2,3,9,9", "--seed", "31", "--a", "-2",
                    "--b", "2", "--out", str(src))
            rc, out, _ = run_cli(capsys, "pool", "--input", str(src),
                                 "--out", str(dst), "--kernel", "3",
                                 "--stride", "2", "--pad", "1",
                                 "--n", "4", "--norm", "layer")
            assert rc == 0
            outs.append((src.read_bytes(), dst.read_bytes(), out))
        assert outs[0] == outs[1]

    def test_gradcheck_and_toytrain_reports(self, capsys):
        first = run_cli(capsys, "gradcheck", "--n", "2", "--shape", "1,2,6,6",
                        "--seed", "12")
        second = run_cli(capsys, "gradcheck", "--n", "2", "--shape", "1,2,6,6",
                         "--seed", "12")
        assert first == second
        args = ("toytrain", "--seed", "3", "--steps", "10", "--lr", "0.0005",
                "--n", "2", "--norm", "none", "--feature-shape", "2,6,6")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_bench_cost_report_deterministic(self, capsys):
        # wall times vary run to run; the JSON cost report must not
        args = ("bench", "--shape", "1,2,10,10", "--repeats", "1")
        a = run_cli(capsys, *args)[1].strip().splitlines()[-1]
        b = run_cli(capsys, *args)[1].strip().splitlines()[-1]
        assert a == b


def test_pool_and_toytrain_leave_the_saved_forward_alone(tmp_path, capsys):
    """No backward follows `pool`, in either mode, or `toytrain`, so none
    saves an entry: the one saved for another tensor z outlives them."""
    src = tmp_path / "noise.tensor"
    run_cli(capsys, "generate", "--pattern", "uniform-noise", "--shape",
            "1,3,16,16", "--seed", "7", "--out", str(src))
    z = ramp((1, 2, 6, 6))
    smp_forward(z, PoolSpec.square(3), MomentSpec(n=4, norm="layer"))
    pool = ("pool", "--input", str(src), "--out", str(tmp_path / "pooled.tensor"),
            "--kernel", "3", "--stride", "2", "--pad", "1")
    assert run_cli(capsys, *pool, "--n", "4", "--norm", "layer")[0] == 0
    assert run_cli(capsys, *pool, "--mode", "sap")[0] == 0
    assert run_cli(capsys, "toytrain", "--seed", "3", "--steps", "5")[0] == 0
    assert smp._cached[0]() is z


def test_cached_parser_prints_what_a_fresh_parser_prints(tmp_path, capsys,
                                                         monkeypatch):
    """`main` keeps one parser for the process: calls of different
    subcommands in a row, errors among them, give the bytes that a fresh
    parser per call gives."""
    noise, pooled = tmp_path / "noise.tensor", tmp_path / "pooled.tensor"
    argvs = [
        ("generate", "--pattern", "uniform-noise", "--shape", "1,2,12,12",
         "--a", "-1", "--b", "1", "--seed", "5", "--out", str(noise)),
        ("pool", "--input", str(noise), "--out", str(pooled), "--kernel", "3",
         "--stride", "2", "--pad", "1", "--n", "4", "--norm", "layer"),
        ("gradcheck", "--shape", "1,2,6,6", "--seed", "5", "--n", "3",
         "--norm", "max"),
        ("pool", "--input", str(noise), "--out", str(pooled), "--n", "4"),
        ("toytrain", "--seed", "3", "--steps", "5", "--n", "2"),
        ("bench", "--shape", "1,2,10,10", "--repeats", "1"),
    ]

    def run_all():
        for f in (noise, pooled):
            f.unlink(missing_ok=True)
        runs = []
        for argv in argvs:
            rc, out, err = run_cli(capsys, *argv)
            if argv[0] == "bench":  # wall times vary; the cost report must not
                out = out.strip().splitlines()[-1]
            runs.append((rc, out, err, *(f.exists() and f.read_bytes()
                                         for f in (noise, pooled))))
        return runs

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = run_all()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached
    assert [rc for rc, *_ in cached] == [0, 0, 0, 2, 0, 0]


def test_console_entry_via_subprocess(tmp_path):
    out = tmp_path / "t.tensor"
    proc = subprocess.run(
        [sys.executable, "-m", "momentpool.cli", "generate", "--pattern",
         "ramp", "--shape", "2,2", "--out", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert tensor_read(out).data.tolist() == [0.0, 1.0, 2.0, 3.0]
    usage = subprocess.run([sys.executable, "-m", "momentpool.cli", "pool"],
                           capture_output=True, text=True, env=child_env())
    assert usage.returncode == 2  # argparse usage error


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["polish"])
    assert exc.value.code == 2
