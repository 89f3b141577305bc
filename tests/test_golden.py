import shutil

import numpy as np
import pytest

from compare_golden import FLOOR, GOLDEN, REL, _read_csv, compare_dir, main

FILES = ["stability/stability.csv", "converge/converge.csv",
         "converge/consistency.csv", "lambda-sweep/lambda_sweep.csv",
         "dn-compare/dn_compare.csv", "stability.out", "converge.out",
         "lambda-sweep.out", "dn-compare.out"]


@pytest.fixture()
def out(tmp_path):
    """A copy of the golden files, as a run's output directory."""
    shutil.copytree(GOLDEN, tmp_path / "out")
    return tmp_path / "out"


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_golden_holds_the_shipped_outputs(out):
    assert sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*")
                  if p.is_file()) == sorted(FILES)
    assert compare_dir(out) == []
    (out / "extra.out").write_text("ignored\n")
    assert main([str(out)]) == 0


def test_floor_lies_below_every_nonzero_golden_value():
    for csv in GOLDEN.glob("*/*.csv"):
        values = np.abs(_read_csv(csv)[1])
        values[~np.isfinite(values)] = 0.0
        floor = FLOOR * values.max(axis=0)
        assert np.all((values == 0) | (values > floor)), csv


def _set(csv, row, column, change):
    """Replace the value at (row, column) of csv by change(value)."""
    rows = [line.split(",") for line in csv.read_text().splitlines()]
    rows[row][column] = repr(change(float(rows[row][column])))
    csv.write_text("".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("name, row, column, change", [
    # the smallest err_S, 5.9e-8 in a column up to 1.2e-5
    ("converge/converge.csv", -1, 3, lambda v: v * (1 + 1e-7)),
    # the first energy_dn, 0.036 in a column up to 1.2e10
    ("dn-compare/dn_compare.csv", 1, 2, lambda v: v * (1 + 1e-7)),
    # the last E, 4.2 in a column up to 9.5e3
    ("stability/stability.csv", -1, 2, lambda v: v * (1 + 1e-7)),
    # T at step 0, an exact zero in a column up to 16
    ("stability/stability.csv", 1, 3, lambda v: v + 1e-18),
])
def test_values_within_tolerance_of_their_own_magnitude(out, name, row, column, change):
    # a change of 1e-11 of the value (of the floor, for a zero) passes,
    # 1e-7 fails, whatever the column's largest magnitude
    csv = out / name
    want = _read_csv(GOLDEN / name)[1]
    floor = FLOOR * float(np.abs(want[:, column]).max())
    _set(csv, row, column, lambda v: v + 1e-2 * REL * max(abs(v), floor))
    assert compare_dir(out) == []
    _set(csv, row, column, change)
    assert len(compare_dir(out)) == 1


@pytest.mark.parametrize("edit", ["nan", "header", "rows", "stdout", "missing"])
def test_disagreements_are_reported(out, capsys, edit):
    csv = out / "converge" / "converge.csv"
    if edit == "nan":  # NaN equals only NaN, both ways
        _edit(csv, ",nan\n", ",0.5\n")
    elif edit == "header":
        _edit(csv, "total", "sum")
    elif edit == "rows":
        csv.write_text("".join(csv.read_text().splitlines(True)[:-1]))
    elif edit == "stdout":
        _edit(out / "converge.out", "0.758", "0.757")
    else:
        csv.unlink()
    problems = compare_dir(out)
    assert len(problems) == 1 and problems[0].startswith("converge")
    assert main([str(out)]) == 1
    assert capsys.readouterr().out == problems[0] + "\n"
