"""The study runner in scripts/study.py: its rows are the library's calls."""

import importlib.util
import math
from pathlib import Path

import pytest

from jumpscan.cli import LADDER
from jumpscan.field import ScaleConfig
from jumpscan.filters import builtin_wstar
from jumpscan.simulate import DetectorSpec, PlsScenario, monte_carlo
from jumpscan.threshold import bootstrap_cv, critical_value, tail_constants

_path = Path(__file__).resolve().parents[1] / "scripts" / "study.py"
_spec = importlib.util.spec_from_file_location("study", _path)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)

W = builtin_wstar()


def _s_star(n):
    return (1.0 / 6.0) * n ** -0.5 * math.log(n) ** 0.5


def _row(name, **keys):
    (row,) = [r for r in study.ROWS if r["study"] == name and all(r[k] == v for k, v in keys.items())]
    return row


def test_null_size_row_is_criterion_6():
    # criterion 6 at n=500, alpha=0.05: the runner takes the monte_carlo path
    row = _row("null_size", n=500, alpha=0.05)
    cfg = ScaleConfig(0.061, 0.167, _s_star(500))
    det = DetectorSpec(cfg=cfg, alpha=0.05)
    m = monte_carlo(PlsScenario.make("smooth_shift", n=500, d=0.0), det, R=400, seed=77, threads=2)
    assert study.run(row, threads=2) == {"rejection": 1.0 - m["hit_rate"]}


def test_critical_value_rows():
    rows = study.rows_for(["critical_values"])
    assert [r["n"] for r in rows] == [n for n, _, _ in LADDER]
    for row, (n, sl, su) in zip(rows, LADDER):
        tc = tail_constants(W, sl, su)
        assert study.run(row) == {f"c({a})": critical_value(a, tc) for a in (0.1, 0.05, 0.01)}
    cells = study.run(rows[0], bootstrap=100, threads=1)
    cfg = ScaleConfig(0.061, 0.167, _s_star(500))
    for a in (0.1, 0.05, 0.01):
        assert cells[f"sim({a})"] == bootstrap_cv(a, 500, cfg, W, B=100, seed=1234, threads=1)


def test_only_and_reps_select_and_rescale_rows(capsys):
    assert study.rows_for() == study.ROWS
    null = study.rows_for(["null_size"], reps=50)
    assert len(null) == 4 and {r["study"] for r in null} == {"null_size"}
    assert [r["R"] for r in null] == [50] * 4
    assert [r["R"] for r in study.rows_for(["null_size"])] == [400] * 4
    desk = study.rows_for(["desk", "critical_values"], reps=60)
    assert len(desk) == 22
    assert all(r["R"] == 60 if r["study"] == "desk" else "R" not in r for r in desk)

    study.main(["--only", "critical_values"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(LADDER) and all(ln.startswith("critical_values") for ln in lines)
    with pytest.raises(SystemExit):
        study.main(["--only", "bogus"])
