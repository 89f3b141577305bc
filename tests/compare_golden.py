"""Compare CLI outputs with the committed golden outputs of the shipped configs.

    python tests/compare_golden.py OUT_DIR

`golden/` next to this script holds, for each shipped config NAME, the CSVs
its command writes (NAME/*.csv) and its stdout (NAME.out), laid out as CI's
rerun step lays out OUT_DIR.  Every golden file must be in OUT_DIR.  A CSV
must have the golden header and number of rows, and each value must lie
within 1e-9 of the larger of its golden value's magnitude and a floor,
1e-12 of the largest finite magnitude in its golden column.  The floor only
lets an exact zero move at round-off: every non-zero golden value lies above
it, so each is compared with its own magnitude.  NaN equals only NaN.  A stdout must be identical.  Files in OUT_DIR that the
golden set does not name are ignored.  Prints one line per disagreement and
exits 1 if there is any, else 0.

A change that moves the results on purpose regenerates the golden files by
running each shipped config with `--out tests/golden/NAME >
tests/golden/NAME.out`.
"""

import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-9
FLOOR = 1e-12


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    values = np.array([row.split(",") for row in rows], dtype=float)
    return header, values.reshape(len(rows), header.count(",") + 1)


def compare_csv(got_path, want_path):
    """Disagreements of the CSV at got_path with the golden one, as text."""
    try:
        (got_head, got), (want_head, want) = _read_csv(got_path), _read_csv(want_path)
    except ValueError as exc:
        return [f"not a numeric CSV: {exc}"]
    if got_head != want_head:
        return [f"header {got_head!r} != {want_head!r}"]
    if got.shape != want.shape:
        return [f"{got.shape[0]} rows != {want.shape[0]}"]
    finite = np.where(np.isfinite(want), np.abs(want), 0.0)
    floor = FLOOR * finite.max(axis=0, initial=0.0)
    close = (got == want) | (np.abs(got - want) <= REL * np.maximum(finite, floor))
    close |= np.isnan(got) & np.isnan(want)
    columns = want_head.split(",")
    return [f"row {i + 1}, {columns[j]}: {got[i, j]!r} != {want[i, j]!r}"
            for i, j in zip(*np.nonzero(~close))]


def compare_dir(out_dir):
    """Disagreements of out_dir with every golden file, as text."""
    out_dir = Path(out_dir)
    wanted = sorted(GOLDEN.glob("*/*.csv")) + sorted(GOLDEN.glob("*.out"))
    if not wanted:
        return [f"{GOLDEN}: no golden files"]
    problems = []
    for want in wanted:
        name = want.relative_to(GOLDEN)
        got = out_dir / name
        if not got.is_file():
            problems.append(f"{name}: missing")
        elif want.suffix == ".csv":
            problems += [f"{name}: {p}" for p in compare_csv(got, want)]
        elif got.read_bytes() != want.read_bytes():
            problems.append(f"{name}: stdout differs")
    return problems


def main(argv):
    (out_dir,) = argv
    problems = compare_dir(out_dir)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
