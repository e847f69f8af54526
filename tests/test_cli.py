import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jumpscan.cli
import jumpscan.detect
import jumpscan.field
import jumpscan.simulate
import jumpscan.tuning
from jumpscan.cli import main


def write_series(path, y, header=True):
    with open(path, "w") as fh:
        if header:
            fh.write("y\n")
        for v in y:
            fh.write(f"{v}\n")


@pytest.fixture()
def step_csv(tmp_path):
    rng = np.random.default_rng(123)
    t = (np.arange(500) + 1) / 500
    y = 3.0 * (t > 0.5) + rng.standard_normal(500)
    p = tmp_path / "series.csv"
    write_series(p, y)
    return p


def test_detect_writes_outputs_and_summary(step_csv, tmp_path, capsys):
    rc = main([
        "detect", "--input", str(step_csv), "--out", str(tmp_path),
        "--alpha", "0.05", "--s-lower", "0.061", "--s-upper", "0.167",
        "--s-star", "0.03",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "jump" in out
    result = json.loads((tmp_path / "series_result.json").read_text())
    assert result["alpha"] == 0.05
    assert len(result["jumps"]) == 1
    assert abs(result["jumps"][0]["raw"] - 0.5) < 0.02
    plot = (tmp_path / "series_plot.csv").read_text().splitlines()
    assert plot[0] == "t,g,threshold,jump"
    assert len(plot) == 501
    assert sum(line.endswith(",1") for line in plot[1:]) == 1


@pytest.mark.parametrize("alpha", ["0.05", "auto"])
def test_detect_builds_field_once(step_csv, tmp_path, monkeypatch, alpha):
    calls = []
    build = jumpscan.field.multiscale_field

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    for mod in (jumpscan.cli, jumpscan.detect, jumpscan.tuning):
        if hasattr(mod, "multiscale_field"):
            monkeypatch.setattr(mod, "multiscale_field", counting)
    rc = main([
        "detect", "--input", str(step_csv), "--out", str(tmp_path),
        "--alpha", alpha, "--s-lower", "0.061", "--s-upper", "0.167",
        "--s-star", "0.03",
    ])
    assert rc == 0
    assert len(calls) == 1


def test_detect_dump_stat(step_csv, tmp_path):
    rc = main([
        "detect", "--input", str(step_csv), "--out", str(tmp_path),
        "--alpha", "0.05", "--s-lower", "0.061", "--s-upper", "0.167",
        "--s-star", "0.03", "--dump-stat",
    ])
    assert rc == 0
    stat = (tmp_path / "series_stat.csv").read_text().splitlines()
    assert stat[0] == "t,g"
    assert len(stat) > 100


def test_detect_fixed_huge_threshold_empty_exit_zero(step_csv, tmp_path):
    rc = main([
        "detect", "--input", str(step_csv), "--out", str(tmp_path),
        "--s-lower", "0.061", "--s-upper", "0.167", "--s-star", "0.03",
        "--threshold", "fixed:99",
    ])
    assert rc == 0
    result = json.loads((tmp_path / "series_result.json").read_text())
    assert result["jumps"] == []


def test_detect_nan_row_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    vals = ["1.0"] * 150
    vals[41] = "nan"
    write_series(p, vals)
    rc = main(["detect", "--input", str(p)])
    assert rc == 2
    assert "line 43" in capsys.readouterr().err  # header + 1-based data rows


def test_detect_ragged_row_exit_2(tmp_path, capsys):
    p = tmp_path / "ragged.csv"
    with open(p, "w") as fh:
        fh.write("y\n")
        for i in range(150):
            fh.write("1.0,2.0\n" if i == 99 else "1.0\n")
    rc = main(["detect", "--input", str(p)])
    assert rc == 2
    assert "line 101" in capsys.readouterr().err


def test_detect_short_series_exit_2(tmp_path):
    p = tmp_path / "short.csv"
    write_series(p, np.zeros(50))
    assert main(["detect", "--input", str(p)]) == 2
    write_series(p, np.random.default_rng(1).standard_normal(jumpscan.field.MIN_N - 1))
    assert main(["detect", "--input", str(p)]) == 2


def test_detect_s_star_selection_error_exit_3(tmp_path, capsys):
    # s_lower lies below every admissible denominator-scale candidate
    p = tmp_path / "series.csv"
    write_series(p, np.random.default_rng(5).standard_normal(1000))
    rc = main([
        "detect", "--input", str(p), "--out", str(tmp_path),
        "--s-lower", "0.005", "--s-upper", "0.1",
    ])
    assert rc == 3
    assert "s_lower below the smallest admissible candidate" in capsys.readouterr().err


def test_detect_half_upper_scale_exit_3(tmp_path, capsys):
    # at s_upper = 1/2 the valid core is empty: a configuration error, named
    assert main(["simulate", "--scenario", "I:GS", "--n", "500", "--out", str(tmp_path)]) == 0
    p = next(tmp_path.glob("*.csv"))
    capsys.readouterr()
    rc = main(["detect", "--input", str(p), "--out", str(tmp_path), "--s-lower", "0.2", "--s-upper", "0.5"])
    assert rc == 3
    assert "s_upper < 1/2" in capsys.readouterr().err


@pytest.mark.parametrize("scales", [[], ["--s-lower", "0.061", "--s-upper", "0.167"]])
def test_detect_constant_series_exit_3(tmp_path, capsys, scales):
    p = tmp_path / "flat.csv"
    write_series(p, np.full(500, 2.5))
    assert main(["detect", "--input", str(p), "--out", str(tmp_path), *scales]) == 3
    assert "no valid point" in capsys.readouterr().err


def test_detect_underflowing_series_exit_3(tmp_path, capsys):
    # not constant, but its squared filter responses underflow to 0
    y = 1e-200 * np.random.default_rng(5).standard_normal(500)
    cfg = jumpscan.field.ScaleConfig(0.061, 0.167, 0.03)
    with pytest.raises(ValueError, match="no valid point.*under- or overflow"):
        jumpscan.field.multiscale_field(y, cfg, jumpscan.cli.builtin_wstar())
    p = tmp_path / "tiny.csv"
    write_series(p, y)
    assert main(["detect", "--input", str(p), "--out", str(tmp_path)]) == 3
    assert "under- or overflow" in capsys.readouterr().err


def test_detect_overflowing_series_exit_3_with_warnings_as_errors(tmp_path):
    # squared filter responses overflow: exit 3 with the error, not 1 with a
    # RuntimeWarning traceback, when warnings are errors
    y, _ = jumpscan.simulate.gen_series(jumpscan.simulate.PlsScenario.make("II", "PLS", n=500))
    p = tmp_path / "huge.csv"
    write_series(p, 1e160 * y)
    src = str(Path(jumpscan.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "jumpscan.cli", "detect", "--input", str(p), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "under- or overflow" in proc.stderr and "Traceback" not in proc.stderr


def test_detect_bad_config_exit_3(step_csv, tmp_path, capsys):
    rc = main([
        "detect", "--input", str(step_csv), "--out", str(tmp_path),
        "--s-lower", "0.2", "--s-upper", "0.1", "--s-star", "0.05",
    ])
    assert rc == 3
    rc = main(["detect", "--input", str(step_csv), "--alpha", "0.7"])
    assert rc == 3


@pytest.mark.parametrize(
    "mode",
    ["fixed", "fixed:", "fixedfoo:3", "fixed:0", "fixed:-1", "fixed:-inf", "analytic:1", "bootstrap:abc"],
)
def test_detect_malformed_threshold_exit_3(mode, step_csv, tmp_path, capsys):
    # automatic scales: the mode is checked before the scale sweep
    assert main(["detect", "--input", str(step_csv), "--out", str(tmp_path), "--threshold", mode]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threshold mode" in err


def test_detect_bad_threads_env_exit_3(step_csv, tmp_path, capsys, monkeypatch):
    argv = ["detect", "--input", str(step_csv), "--out", str(tmp_path)]
    cases = [(env, [], "JUMPSCAN_THREADS") for env in ("abc", "0", "-1")]
    cases.append(("1", ["--threads", "0"], "--threads"))  # the flag wins over the variable
    for env, flag, source in cases:
        monkeypatch.setenv("JUMPSCAN_THREADS", env)
        assert main(argv + flag) == 3, (env, flag)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and source in err


def test_detect_seed_reproducible(step_csv, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = [
        "detect", "--input", str(step_csv), "--alpha", "0.05",
        "--s-lower", "0.061", "--s-upper", "0.167", "--s-star", "0.03",
        "--threshold", "bootstrap:200", "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "series_result.json").read_text() == (out2 / "series_result.json").read_text()


def test_detect_thread_flag_location_invariant(step_csv, tmp_path):
    outs = []
    for tag, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / tag
        assert main([
            "detect", "--input", str(step_csv), "--out", str(out),
            "--alpha", "0.05", "--s-lower", "0.061", "--s-upper", "0.167",
            "--s-star", "0.03", "--threads", threads,
        ]) == 0
        outs.append(json.loads((out / "series_result.json").read_text()))
    assert [j["raw"] for j in outs[0]["jumps"]] == [j["raw"] for j in outs[1]["jumps"]]


def test_calibrate_reference_values(capsys):
    assert main(["calibrate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    first = lines[1].split()
    last = lines[-1].split()
    assert first[0] == "500" and last[0] == "5000"
    assert float(first[3]) == pytest.approx(3.530, abs=0.01)
    assert float(first[4]) == pytest.approx(3.735, abs=0.01)
    assert float(last[5]) == pytest.approx(4.518, abs=0.01)


def test_calibrate_custom_rows(capsys):
    assert main(["calibrate", "--rows", "500:0.061:0.167", "--alphas", "0.05"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("500")
    assert "3.735" in out[-1]


def test_simulate_writes_series_and_truth(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "II:PLS", "--n", "400", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    csvs = list(tmp_path.glob("*.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text().splitlines()
    assert len(lines) == 401
    sidecar = json.loads(csvs[0].with_suffix(".json").read_text())
    assert len(sidecar["jumps"]) == 2
    assert sidecar["jumps"][0]["location"] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--alpha", "abc"],
        ["montecarlo", "--alpha", "0.7"],
        ["montecarlo", "--alpha", "abc"],
        ["montecarlo", "--s-lower", "0.3", "--s-upper", "0.2"],
        ["detect", "--s-star", "0.02"],
        ["montecarlo", "--s-lower", "0.05"],
    ],
    ids=[
        "detect-alpha-abc", "mc-alpha-0.7", "mc-alpha-abc", "mc-scales-inverted",
        "detect-s-star-without-scales", "mc-s-lower-alone",
    ],
)
def test_bad_level_or_scales_exit_3(argv, step_csv, tmp_path, capsys):
    where = ["--input", str(step_csv)] if argv[0] == "detect" else ["--scenario", "I:GS", "--reps", "50"]
    assert main([argv[0], *where, "--out", str(tmp_path), *argv[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_bad_scenario_exit_3(tmp_path):
    assert main(["simulate", "--scenario", "bogus:GS", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--rows", "bad"],
        ["calibrate", "--alphas", "abc"],
        ["calibrate", "--alphas", "0.05,"],
        ["simulate", "--scenario", "I:GS", "--n", "50"],
    ],
    ids=["calibrate-rows-bad", "calibrate-alphas-abc", "calibrate-alphas-empty", "simulate-n-50"],
)
def test_calibrate_or_simulate_bad_argument_exit_3(argv, tmp_path, capsys):
    out = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
    assert main([*argv, *out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_montecarlo_smoke(tmp_path, capsys):
    rc = main([
        "montecarlo", "--scenario", "I:GS", "--n", "500", "--reps", "50",
        "--seed", "2", "--out", str(tmp_path), "--alpha", "0.05",
        "--s-lower", "0.061", "--s-upper", "0.167", "--s-star", "0.03",
        "--threads", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hit_rate" in out
    assert "mean_gen_runtime" in out
    table = list(tmp_path.glob("mc_*.csv"))[0].read_text().splitlines()
    header = table[0].split(",")
    row = dict(zip(header, table[1].split(",")))
    assert float(row["hit_rate"]) >= 0.9
    assert float(row["mean_gen_runtime"]) > 0


def test_montecarlo_probes_the_series_of_its_seed(tmp_path, capsys):
    # without --s-star the denominator scale is selected on the series of --seed
    argv = ["montecarlo", "--scenario", "II:PLS", "--n", "500", "--reps", "50", "--seed", "5",
            "--alpha", "auto", "--out", str(tmp_path)]
    assert main(argv) == 0
    header, line = (tmp_path / "mc_II_PLS_n500.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    filt = jumpscan.cli.builtin_wstar()
    sc = jumpscan.simulate.PlsScenario.make("II", "PLS", n=500, seed=5)
    probe, _ = jumpscan.simulate.gen_series(sc)
    s_star = jumpscan.tuning.select_s_star(probe, 0.061, 0.167, filt).chosen
    det = jumpscan.simulate.DetectorSpec(
        cfg=jumpscan.field.ScaleConfig(0.061, 0.167, s_star), alpha="auto", filt=filt
    )
    want = jumpscan.simulate.monte_carlo(sc, det, R=50, seed=5)
    for key in set(row) - {"mean_runtime", "mean_gen_runtime"}:
        assert row[key] == f"{want[key]:.6g}", key


def test_tune_reports_sweeps_and_auto_detection(step_csv, capsys):
    rc = main(["tune", "--input", str(step_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    sweeps, block = out.split("{", 1)
    assert sweeps.startswith("scale-pair stability sweep:\n")
    assert "denominator-scale sweep:\n" in sweeps
    assert sweeps.count("<-- chosen") == 2
    y = np.loadtxt(step_csv, skiprows=1)
    res, info = jumpscan.tuning.auto_detect(y, jumpscan.cli.builtin_wstar(), alpha="auto")
    cfg = info["config"]
    assert json.loads("{" + block) == {
        "s_lower": cfg.s_lower, "s_upper": cfg.s_upper, "s_star": cfg.s_star,
        "alpha": res.alpha, "threshold": res.threshold,
    }
