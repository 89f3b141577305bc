import csv
import gc
import io
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fsisplit import cli, experiments, initial_data, splitting
from fsisplit.assembly import SingularSystemError
from fsisplit.cli import main
from fsisplit.config import ConfigError, dump_config, parse_config

_SHIPPED = Path(__file__).resolve().parent.parent / "configs"
BASE = {
    "L": "1.0", "H_f": "1.0", "H_s": "1.0",
    "nx": "4", "ny_f": "4", "ny_s": "4",
    "rho_f": "1.0", "rho_s": "1.0", "mu": "0.1",
    "l1": "1.0", "l2": "1.0", "lambda": "1.0",
    "T": "0.25", "N": "8", "m": "1",
    "mode": "stability", "dt_levels": "3", "seed": "7",
}


def write_config(path, **overrides):
    vals = dict(BASE)
    for k, v in overrides.items():
        if v is None:
            vals.pop(k)
        else:
            vals[k] = v
    path.write_text("".join(f"{k} = {v}\n" for k, v in vals.items()))
    return str(path)


def test_parse_valid_config(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.cfg"))
    assert cfg.geometry.length == 1.0
    assert cfg.nx == 4 and cfg.num_windows == 8 and cfg.substeps == 1
    assert cfg.params.lambda_robin == 1.0
    assert cfg.mode == "stability" and cfg.seed == 7


def test_parse_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "b.cfg"
    text = "# header\n\n" + "".join(f"  {k} = {v}  # note\n"
                                    for k, v in BASE.items())
    path.write_text(text)
    assert parse_config(str(path)).num_windows == 8


@pytest.mark.parametrize("overrides,needle", [
    ({"lambda": "0.0"}, "lambda"),
    ({"rho_f": "-1.0"}, "rho_f"),
    ({"bogus": "1"}, "bogus"),
    ({"N": None}, "N"),
    ({"N": "0"}, "window"),
    ({"nx": "zero"}, "nx"),
    ({"mode": "plot"}, "mode"),
    ({"dt_levels": "0"}, "dt_levels"),
    ({"L": "-2"}, "geometry"),
    ({"dt_levels": "1"}, "dt_levels"),
] + [({key: value}, f"key '{key}': must be finite")
     for key in ("L", "H_f", "H_s", "rho_f", "rho_s", "mu", "l1", "l2",
                 "lambda", "T")
     for value in ("nan", "inf", "-inf")] + [
    ({"seed": "-1"}, "seed"),
    ({"nx": "1000000000"}, "'nx'/'ny_f'/'ny_s': 16000000000 mesh cells"),
    ({"ny_s": "100000"}, "mesh cells exceed"),
    ({"N": "1000000000000"}, "'N'/'m'/'dt_levels'"),
    ({"m": "1000000007"}, "'N'/'m'/'dt_levels'"),
    ({"dt_levels": "1000000000000"}, "'N'/'m'/'dt_levels'"),
])
def test_parse_rejects_and_names_key(tmp_path, overrides, needle):
    path = write_config(tmp_path / "bad.cfg", **overrides)
    with pytest.raises(ConfigError, match=needle):
        parse_config(path)


def test_parse_bounds_sizes_at_their_limits(tmp_path):
    """The size bounds sit exactly at MAX_CELLS and MAX_STEPS, and the
    smallest T at a non-zero reference step; only the parser runs, so no
    mesh is built."""
    from fsisplit.config import MAX_CELLS, MAX_STEPS

    assert 2 * 128 * (256 + 256) == MAX_CELLS
    cfg = parse_config(write_config(tmp_path / "a.cfg", nx="128", ny_f="256",
                                    ny_s="256"))
    assert cfg.nx == 128
    with pytest.raises(ConfigError, match="mesh cells"):
        parse_config(write_config(tmp_path / "b.cfg", nx="128", ny_f="256",
                                  ny_s="257"))
    # N * 2^(dt_levels - 1) * lcm(8, m): 32768 * 4 * 8 steps
    assert 32768 * 4 * 8 == MAX_STEPS
    cfg = parse_config(write_config(tmp_path / "c.cfg", N="32768"))
    assert cfg.num_windows == 32768
    for overrides in ({"N": "32769"}, {"N": "32768", "m": "3"},
                      {"N": "32768", "dt_levels": "4"}):
        with pytest.raises(ConfigError, match="reference"):
            parse_config(write_config(tmp_path / "d.cfg", **overrides))
    # T / 256 reference steps (the base config's) rounds to zero for T at
    # 128 units of the smallest subnormal, 5e-324, and below
    assert parse_config(write_config(tmp_path / "e.cfg", T="6.37e-322")).t_final > 0
    for T in ("6.3e-322", "5e-324"):
        with pytest.raises(ConfigError, match="key 'T'"):
            parse_config(write_config(tmp_path / "e.cfg", T=T))
    # the shipped configs all lie within the bounds
    for shipped in (Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"):
        parse_config(str(shipped))


def test_parse_rejects_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in BASE.items())
                    + "nx = 5\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))


def test_byte_order_mark_is_dropped(tmp_path):
    """Some editors start a UTF-8 file with a byte-order mark; it is not
    part of the first key."""
    shipped = _SHIPPED / "stability.cfg"
    path = tmp_path / "bom.cfg"
    path.write_text("\ufeff" + shipped.read_text(), encoding="utf-8")
    assert dump_config(parse_config(str(path))) == dump_config(parse_config(str(shipped)))


def test_dump_round_trips_byte_identically(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.cfg"))
    text = dump_config(cfg)
    path = tmp_path / "canon.cfg"
    path.write_text(text)
    assert dump_config(parse_config(str(path))) == text


@settings(max_examples=25, deadline=None)
@given(L=st.floats(0.01, 100.0), mu=st.floats(1e-6, 10.0),
       lam=st.floats(1e-3, 1e3), T=st.floats(0.01, 10.0))
def test_dump_parse_fixed_point(tmp_path_factory, L, mu, lam, T):
    tmp = tmp_path_factory.mktemp("cfg")
    path = write_config(tmp / "h.cfg", L=repr(L), mu=repr(mu),
                        **{"lambda": repr(lam)}, T=repr(T))
    text = dump_config(parse_config(path))
    path2 = tmp / "h2.cfg"
    path2.write_text(text)
    assert dump_config(parse_config(str(path2))) == text


def test_dump_of_shipped_config_is_canonical():
    """Floats, then ints, then mode, whatever the file's order: the
    benchmark hashes this text into each run's metadata."""
    assert dump_config(parse_config(str(_SHIPPED / "stability.cfg"))) == """\
L = 1.0
H_f = 1.0
H_s = 1.0
rho_f = 1.0
rho_s = 1.0
mu = 0.1
l1 = 1.0
l2 = 1.0
lambda = 1.0
T = 0.5
nx = 16
ny_f = 16
ny_s = 16
N = 64
m = 1
dt_levels = 4
seed = 7
mode = stability
"""


# -- CLI exit codes and outputs ----------------------------------------------


def _run(tmp_path, command, config, out=None):
    """Run `command` on `config` written to tmp_path/run.cfg (see _CONTRACT)
    with --out tmp_path/out (default o): (exit code, stdout, stderr, out)."""
    path, out_dir = tmp_path / "run.cfg", tmp_path / (out or "o")
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        write_config(path, **config)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([command, "--config", str(path), "--out", str(out_dir)])
    return code, stdout.getvalue(), stderr.getvalue(), out_dir


def _rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


def _inaccurate_solves(monkeypatch):
    """Every sparse LU solve returns 1.001 times its solution."""
    def perturbed(A, splu=spla.splu, **kw):
        lu = splu(A, **kw)
        return SimpleNamespace(solve=lambda b, trans="N": 1.001 * lu.solve(b, trans))

    monkeypatch.setattr(spla, "splu", perturbed)


def _row(name, command, config, codes, needle="", out=None, patch=None):
    return pytest.param(command, config, out, patch, codes, needle, id=name)


_ONE = {"nx": "1", "ny_f": "1", "ny_s": "1"}  # one cell per subdomain
_LONG = {"L": "3.0", "H_f": "0.2", "H_s": "0.5"}
_CONVERGE = dict(line.split(" = ")
                 for line in (_SHIPPED / "converge.cfg").read_text().splitlines())
# A command on a config (overrides of BASE, raw bytes, or None for no file),
# its allowed exit codes, a needle of its stderr, and maybe an --out under
# tmp_path ("file" is a file, "csvdir/stability.csv" a directory) and a patch.
_CONTRACT = [
    _row("missing", "stability", None, {2}, "No such file"),
    _row("lambda-0", "stability", {"lambda": "0.0"}, {2}, "lambda"),
    # l2 = nan once dropped the div-div term and exited 0
    _row("l2-nan", "stability", {"l2": "nan"}, {2}, "'l2'"),
    # bytes that are not UTF-8 once escaped main as a UnicodeDecodeError
    _row("not-utf8", "stability", b"L = 1.0\xff\n", {2}, "not UTF-8"),
    # a huge nx is named, not written out: at 4000 digits the mesh bound rejects
    # it, at 4300 its cell count outgrows str(), and at 5000 int() refuses it
    *[_row(f"nx-{d}-digits", "dump-config", {"nx": "9" * d}, {2}, "'nx'")
      for d in (4000, 4300, 5000)],
    # the shipped converge config on one cell per subdomain: its smooth mode
    # is round-off (E0 about 3e-31 on the unit channel, 2e-24 on the long one)
    # and fails only that verdict, as its errors fit rates of 0.575 and 0.547
    *[_row(f"roundoff-{name}-{command}", command, {**_CONVERGE, **_ONE, **geom},
           {4}, "round-off")
      for name, geom in (("unit", {}), ("long", _LONG))
      for command in ("converge", "lambda-sweep")],
    # lambda M_if swamps rho_f / ddt M_f (from lambda = 10^16.9 at ddt = 0.125):
    # the Robin-Robin fluid saddle point loses its pressure constant
    *[_row(f"lambda-{lam}", "converge",
           {**_ONE, "N": "2", "T": "0.25", "mode": "converge", "dt_levels": "2",
            "seed": "1", "lambda": lam}, {3}, "solver failure")
      for lam in ("1e18", "1e40", "1e158")],
    # heavy solid: no added-mass blow-up, so the contrast threshold fails
    _row("dn-heavy", "dn-compare", {"mode": "dn-compare", "rho_s": "1000.0", "N": "40"},
         {4}, "threshold"),
    # at T = 1e-300 the scale of the first solve's backward-error check passes
    # the largest double: a silent inf, with no overflow warning
    *[_row(f"tiny-step-{command}", command,
           {**_ONE, "mode": command, "N": "2", "T": "1e-300"}, codes)
      for command, codes in (("stability", {0}), ("dn-compare", {0, 3}))],
    # m = 3 does not divide the 8 reference steps per finest window
    *[_row(f"m3-{command}", command,
           {"mode": command, "N": "2", "m": "3", "dt_levels": "2", "seed": "0"}, {0, 4})
      for command in ("converge", "lambda-sweep")],
    _row("singular", "stability", {}, {3}, "solver failure: pivot",
         patch=lambda mp: mp.setitem(cli.COMMANDS, "stability",
                                     Mock(side_effect=SingularSystemError("pivot")))),
    _row("out-of-memory", "stability", {}, {3}, "solver failure: Unable to allocate",
         patch=lambda mp: mp.setattr(cli, "Discretization", Mock(
             side_effect=MemoryError("Unable to allocate 8.00 EiB")))),
    _row("inaccurate-solve", "stability", {}, {3}, "solver failure: solve backward error",
         patch=_inaccurate_solves),
    # an --out that is a file or lies under one, and a CSV that cannot be
    # written inside the command
    *[_row(f"out-{name}", "stability", {"N": "2"}, {2}, "output error: ", out=out)
      for name, out in (("is-file", "file"), ("under-file", "file/sub"),
                        ("csv-is-dir", "csvdir"))],
]


@pytest.mark.parametrize("command,config,out,patch,codes,needle", _CONTRACT)
def test_exit_code_contract(tmp_path, monkeypatch, command, config, out, patch,
                            codes, needle):
    """Each row exits with one of its codes, with its needle on stderr and no
    traceback.  A config or output error (2) writes no CSV, and its stderr
    is one line of under 200 bytes besides the temporary directory's path."""
    (tmp_path / "file").write_text("")
    (tmp_path / "csvdir" / "stability.csv").mkdir(parents=True)
    if patch:
        patch(monkeypatch)
    code, _, err, _ = _run(tmp_path, command, config, out)
    assert code in codes and needle in err and "Traceback" not in err, err
    if code == 2:
        assert not [p for p in tmp_path.rglob("*.csv") if p.is_file()]
        assert err.count("\n") == 1 and len(err.replace(str(tmp_path), "").encode()) < 200


def test_dump_config_command(tmp_path):
    code, out, _, _ = _run(tmp_path, "dump-config", {})
    assert code == 0 and "lambda = 1.0" in out and "mode = stability" in out


def test_stability_command_writes_csv(tmp_path):
    runs = [_run(tmp_path, "stability", {}, out) for out in ("r1", "r2")]
    assert [code for code, *_ in runs] == [0, 0]
    csv1, csv2 = (out / "stability.csv" for *_, out in runs)
    assert csv1.read_bytes() == csv2.read_bytes()  # bitwise rerun
    rows = _rows(csv1)
    assert len(rows) == 8 + 1
    resid = np.array([float(r["stability_residual"]) for r in rows])
    scale = float(rows[0]["E"]) + float(rows[0]["S"])
    assert resid.max() <= 1e-8 * scale


def test_converge_command(tmp_path):
    code, _, _, out = _run(tmp_path, "converge", {"mode": "converge", "N": "4", "seed": "0"})
    assert code == 0
    dts = [float(r["dt"]) for r in _rows(out / "converge.csv")]
    assert len(dts) == 3 and dts == sorted(dts, reverse=True)  # dt_levels, halved
    assert (out / "consistency.csv").exists()


# One cell per subdomain, with lengths and coefficients across decades: the
# smooth mode is round-off there (E0 about 1e-47).
ONE_CELL = {
    "L": "0.016872741291426623", "H_f": "0.27597765877611896",
    "H_s": "0.09954209598476502", "nx": "1", "ny_f": "1", "ny_s": "1",
    "rho_f": "4330.093984177311", "rho_s": "0.00015949890968342694",
    "mu": "2.379803202676259", "l1": "0.00014762467611305214", "l2": "0.0",
    "lambda": "222.77699102169882", "T": "0.05102966262157215", "N": "1",
    "m": "4", "dt_levels": "2", "seed": "1",
}


def test_converge_zero_error_exits_4(tmp_path, capsys, monkeypatch):
    """A smooth mode built from a zero stream-function velocity is exactly
    zero: both levels' errors are 0, so the pairwise rate is 0/0, and the
    zero initial energy fails the round-off verdict."""
    monkeypatch.setattr(initial_data, "stream_function_velocity",
                        lambda disc: np.zeros(disc.V_f.ndof))
    path = write_config(tmp_path / "z.cfg", mode="converge", **ONE_CELL)
    out = tmp_path / "o"
    # fit_rate's flag on purpose; the 0/0 rate and log(0) are silent
    with pytest.warns(RuntimeWarning, match="not strictly decreasing") as caught:
        assert main(["converge", "--config", path, "--out", str(out)]) == 4
    assert len(caught) == 1
    assert "rate = nan" in capsys.readouterr().out
    rows = list(csv.DictReader((out / "converge.csv").read_text().splitlines()))
    assert [r["total"] for r in rows] == ["0", "0"]
    assert [r["rate_pairwise"] for r in rows] == ["nan", "nan"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cells=st.tuples(*[st.integers(1, 2)] * 4), m=st.integers(1, 4),
       lengths=st.tuples(*[oracles.decades(-2, 1)] * 3),
       floats=st.tuples(*[oracles.decades(-4, 4)] * 5),
       l2=st.one_of(st.just(0.0), oracles.decades(-4, 4)),
       T=oracles.decades(-2, 0), seed=st.integers(-2, 3))
@example(cells=(1, 1, 1, 1), m=4,
         lengths=tuple(float(ONE_CELL[k]) for k in ("L", "H_f", "H_s")),
         floats=tuple(float(ONE_CELL[k])
                      for k in ("rho_f", "rho_s", "mu", "l1", "lambda")),
         l2=0.0, T=float(ONE_CELL["T"]), seed=1)
# interface edges whose squared lengths underflow: a zero interface mass
@example(cells=(1, 1, 1, 2), m=1, lengths=(1e-200, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1.0), l2=1.0, T=0.25, seed=1)
# lambda ** 2 overflows in the consistency terms
@example(cells=(1, 1, 1, 2), m=1, lengths=(1.0, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1e158), l2=1.0, T=0.25, seed=1)
# lambda M_if swamps rho_f / ddt M_f: the Robin-Robin fluid saddle point
# loses its pressure constant, and `converge` exits 3
@example(cells=(1, 1, 1, 2), m=1, lengths=(1.0, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1e20), l2=1.0, T=0.25, seed=1)
# a zero time step: every command's, or only the convergence reference's
@example(cells=(1, 1, 1, 2), m=1, lengths=(1.0, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1.0), l2=1.0, T=5e-324, seed=1)
@example(cells=(1, 1, 1, 2), m=1, lengths=(1.0, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1.0), l2=1.0, T=3e-323, seed=1)
# interface dual norms past the largest double: converge and lambda-sweep
# fail their verdicts on the silent inf and NaN, with no warning
@example(cells=(1, 1, 1, 2), m=1, lengths=(1.0, 1.0, 1.0),
         floats=(1.0, 1.0, 0.1, 1.0, 1.0), l2=1.0, T=1e-200, seed=1)
def test_every_command_keeps_exit_code_contract(tmp_path_factory, cells, m,
                                                lengths, floats, l2, T, seed):
    """Small configs across decades: every command exits 0, 2, 3 or 4, and
    no exception escapes main."""
    tmp = tmp_path_factory.mktemp("contract")
    keys = dict(zip(("nx", "ny_f", "ny_s", "N"), map(str, cells)))
    keys.update(zip(("L", "H_f", "H_s"), map(repr, lengths)))
    keys.update(zip(("rho_f", "rho_s", "mu", "l1", "lambda"), map(repr, floats)))
    path = write_config(tmp / "h.cfg", **keys, l2=repr(l2), T=repr(T),
                        m=str(m), dt_levels="2", seed=str(seed))
    for command in ("stability", "converge", "lambda-sweep", "dn-compare"):
        assert main([command, "--config", path,
                     "--out", str(tmp / command)]) in (0, 2, 3, 4)


# mutations of a config's lines; none writes a decimal digit, so no value
# grows into a long run
_LINE = st.integers(0, 17)
_GARBLE = st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=4)
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), _LINE),
    st.tuples(st.just("duplicate"), _LINE),
    st.tuples(st.just("garble"), _LINE, st.integers(0, 12), st.integers(0, 3), _GARBLE),
    st.tuples(st.just("bytes"), _LINE, st.integers(0, 12),
              st.binary(min_size=1, max_size=4).filter(
                  lambda b: not any(c.isdecimal() for c in b.decode(errors="ignore")))),
    st.tuples(st.just("bom")),
    st.tuples(st.just("unknown"), _LINE, st.sampled_from(["bogus", "Nx", "lambda_", "mode2"])),
    st.tuples(st.just("value"), _LINE,
              st.sampled_from(["nan", "-nan", "1e400", "-1e400", "1e300", "1e-300", "-0",
                               "9" * 5000, "1" + "0" * 4999])),
)


def _mutate(lines, mutation):
    """Apply one mutation to a config's lines (bytes, each without its
    newline)."""
    kind, *args = mutation
    if kind == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
        return
    i = args[0] % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "garble":
        start, width, text = args[1:]
        lines[i] = lines[i][:start] + text.encode() + lines[i][start + width:]
    elif kind == "bytes":
        lines[i] = lines[i][:args[1]] + args[2] + lines[i][args[1]:]
    elif kind == "unknown":
        lines.insert(i, args[1].encode() + b" = 1")
    else:
        lines[i] = lines[i].partition(b"=")[0] + b"= " + args[1].encode()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(command=st.sampled_from(["stability", "converge", "lambda-sweep",
                                "dn-compare", "dump-config"]),
       mutations=st.lists(_MUTATIONS, max_size=3))
def test_mutated_shipped_config_keeps_exit_code_contract(tmp_path_factory, command,
                                                         mutations):
    """A shipped config, shrunk to a 2x2x2 mesh and two short levels, then
    with lines dropped, duplicated or garbled, raw bytes, a byte-order mark,
    unknown keys or non-finite and 5000-digit values: every command exits 0,
    2, 3 or 4, and no exception escapes main."""
    name = "stability" if command == "dump-config" else command
    text = (_SHIPPED / f"{name.replace('-', '_')}.cfg").read_text()
    small = {"nx": "2", "ny_f": "2", "ny_s": "2", "N": "2", "dt_levels": "2"}
    lines = [f"{k} = {small.get(k, v)}".encode()
             for k, v in (line.split(" = ") for line in text.splitlines())]
    for mutation in mutations:
        _mutate(lines, mutation)
    tmp = tmp_path_factory.mktemp("mutated")
    path = tmp / "m.cfg"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main([command, "--config", str(path), "--out", str(tmp / "o")]) in (0, 2, 3, 4)


def test_dn_compare_blowup_exits_0(tmp_path):
    code, _, _, out = _run(tmp_path, "dn-compare", {"mode": "dn-compare", "N": "120"})
    assert code == 0
    rows = _rows(out / "dn_compare.csv")
    e0 = float(rows[0]["energy_dn"])
    assert max(float(r["energy_dn"]) for r in rows) >= 1e6 * e0


def test_dn_compare_takes_one_substep_per_window(tmp_path):
    """Both schemes of dn-compare step T / N whatever m is: m = 3 writes the
    CSV and stdout of m = 1 byte for byte, with the same exit code."""
    runs = [_run(tmp_path, "dn-compare", {"mode": "dn-compare", "N": "40", "m": m}, f"m{m}")
            for m in ("1", "3")]
    (code1, out1, _, dir1), (code2, out2, _, dir2) = runs
    assert (code1, out1) == (code2, out2)
    assert (dir1 / "dn_compare.csv").read_bytes() == (dir2 / "dn_compare.csv").read_bytes()


@pytest.mark.parametrize("energies,code,growth", [
    # Python's max skips a NaN that is not first: [1, nan] has max 1.0
    ([1.0, float("nan")], 0, "inf"),
    # an energy history that never leaves zero did not blow up
    ([0.0] * 6, 4, "0.000e+00"),
    # growth is measured from the first non-zero energy, not from a zero one
    ([0.0, 1e-3, 2e-3, 2e-3, 2e-3, 2e-3], 4, "2.000e+00"),
], ids=["nan_is_blowup", "zero_first_energy", "from_first_nonzero_energy"])
def test_dn_compare_verdict(tmp_path, monkeypatch, capsys, energies, code, growth):
    """dn-compare's exit code and printed growth for given DN energies, one
    per step."""
    values = iter(energies)
    monkeypatch.setattr(experiments, "energy_E", lambda *args: next(values))
    path = write_config(tmp_path / "d.cfg", mode="dn-compare",
                        rho_s="1000.0", N="6")
    assert main(["dn-compare", "--config", path,
                 "--out", str(tmp_path / "o")]) == code
    assert f"dn energy growth = {growth}," in capsys.readouterr().out


@pytest.mark.parametrize("command", ["stability", "converge", "lambda-sweep"])
def test_nan_result_fails_threshold(tmp_path, monkeypatch, command):
    """A NaN residual or fitted rate fails the verdict (exit 4), although
    every comparison with NaN is False."""
    robin_robin, convergence = experiments.robin_robin, experiments.convergence

    def nan_energy(*args):
        ledger = robin_robin(*args)
        ledger.E[1] = float("nan")
        return ledger

    def nan_error(*args):
        result = convergence(*args)
        result[1][0].E_final = float("nan")
        return result

    monkeypatch.setattr(experiments, "robin_robin", nan_energy)
    monkeypatch.setattr(experiments, "convergence", nan_error)
    path = write_config(tmp_path / "n.cfg", mode=command, N="4", dt_levels="2",
                        seed="0")
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("command", ["converge", "lambda-sweep"])
def test_unstable_level_fails_convergence_verdict(tmp_path, monkeypatch, capsys,
                                                  command):
    """A level whose stability residual exceeds 1e-8 (E0 + S0) fails both
    convergence commands, though the rate passes; the message names it."""
    convergence, named = experiments.convergence, []

    def unstable(*args):
        result = convergence(*args)
        scale = result[2][-1][1]
        result[2][-1] = (2e-8 * scale, scale)
        named.append(f"stability residual {2e-8 * scale:.3e}")
        return result

    monkeypatch.setattr(experiments, "convergence", unstable)
    path = write_config(tmp_path / "u.cfg", mode=command, N="4", seed="0")
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert named and all(n in err for n in named)


_SWEEP = {"mode": "lambda-sweep", "dt_levels": "2", "seed": "0"}


def test_lambda_sweep_assembles_each_stiffness_once(tmp_path, monkeypatch):
    """Every solver and diagnostic of all Robin weights and dt levels shares
    one fluid and two solid stiffness matrices: (l1, l2), and (1, 0) for the
    solid extension of the initial data."""
    calls = Counter()

    def counting(name):
        original = getattr(splitting, name)

        def wrapper(space, *coeffs):
            calls[(name,) + coeffs] += 1
            return original(space, *coeffs)
        return wrapper

    for name in ("assemble_symgrad", "assemble_elasticity"):
        monkeypatch.setattr(splitting, name, counting(name))
    assert _run(tmp_path, "lambda-sweep", _SWEEP)[0] == 0  # mu = 0.1, l1 = l2 = 1
    assert calls == {("assemble_symgrad", 0.1): 1,
                     ("assemble_elasticity", 1.0, 1.0): 1,
                     ("assemble_elasticity", 1.0, 0.0): 1}


def test_lambda_sweep_holds_one_reference(tmp_path, monkeypatch):
    """Each Robin weight's monolithic reference is freed before the next
    weight's study starts."""
    convergence, refs = experiments.convergence, []

    def tracking(*args):
        gc.collect()
        assert all(ref() is None for ref in refs)
        result = convergence(*args)
        refs.append(weakref.ref(result[3]))
        return result

    monkeypatch.setattr(experiments, "convergence", tracking)
    assert _run(tmp_path, "lambda-sweep", _SWEEP)[0] == 0
    assert len(refs) == 3


def test_csv_floats_full_precision(tmp_path):
    code, _, _, out = _run(tmp_path, "stability", {"N": "2"})
    assert code == 0
    val = _rows(out / "stability.csv")[1]["E"]
    # 17 significant digits survive a float round-trip exactly
    assert f"{float(val):.17g}" == val
