"""CLI surface: subcommands, exit codes, JSON reports, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from momentpool.cli import main
from momentpool.synth import checkerboard, ramp
from momentpool.tensor import tensor_read, tensor_write
from momentpool.toytrain import ToyTrainConfig, run_toytrain

from childenv import child_env

CHECKER_MOMENTS = [5 / 9, 20 / 81, -20 / 729, 3780 / 59049]


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

    def test_bad_shape_is_usage_error(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "generate", "--pattern", "solid",
                             "--shape", "0,3", "--out", str(tmp_path / "x"))
        assert rc == 2 and "shape" in err


class TestPool:
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

    def test_batch_norm_needs_batch(self, capsys):
        rc, _, err = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "batch",
                             "--shape", "1,2,6,6", "--seed", "2")
        assert rc == 2 and "batch" in err
        rc, out, _ = run_cli(capsys, "gradcheck", "--n", "4", "--norm", "batch",
                             "--shape", "4,2,6,6", "--seed", "2")
        assert rc == 0 and json.loads(out)["passed"] is True


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
    ])
    def test_non_finite_numeric_flag_is_usage_error(self, capsys, args, name):
        rc, out, err = run_cli(capsys, *args)
        assert rc == 2 and f"{name} must be finite" in err and out == ""


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
