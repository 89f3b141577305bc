import csv
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fsisplit import initial_data
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


@pytest.mark.parametrize("digits", [4000, 4300, 5000])
def test_long_value_is_not_echoed(tmp_path, capsys, digits):
    """A huge nx is named, not written out: at 4000 digits the mesh-size
    bound rejects it, at 4300 its cell count has more digits than str()
    writes, and at 5000 int() refuses it."""
    path = write_config(tmp_path / "long.cfg", nx="9" * digits)
    assert main(["dump-config", "--config", path]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and "'nx'" in err


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


def test_missing_config_exits_2(tmp_path):
    assert main(["stability", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_invalid_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path / "bad.cfg", **{"lambda": "0.0"})
    assert main(["stability", "--config", path, "--out", str(tmp_path)]) == 2
    assert "lambda" in capsys.readouterr().err
    # l2 = nan once dropped the div-div term and exited 0
    path = write_config(tmp_path / "nan.cfg", l2="nan")
    assert main(["stability", "--config", path, "--out", str(tmp_path)]) == 2
    assert "'l2'" in capsys.readouterr().err
    # bytes that are not UTF-8 once escaped main as a UnicodeDecodeError
    path = tmp_path / "bytes.cfg"
    path.write_bytes(b"L = 1.0\xff\n")
    assert main(["stability", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_dump_config_command(tmp_path, capsys):
    path = write_config(tmp_path / "a.cfg")
    assert main(["dump-config", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "lambda = 1.0" in out and "mode = stability" in out


def test_stability_command_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path / "a.cfg")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["stability", "--config", path, "--out", str(out1)]) == 0
    assert main(["stability", "--config", path, "--out", str(out2)]) == 0
    csv1 = (out1 / "stability.csv").read_bytes()
    assert csv1 == (out2 / "stability.csv").read_bytes()  # bitwise rerun
    rows = list(csv.DictReader((out1 / "stability.csv").read_text().splitlines()))
    assert len(rows) == 8 + 1
    resid = np.array([float(r["stability_residual"]) for r in rows])
    scale = float(rows[0]["E"]) + float(rows[0]["S"])
    assert resid.max() <= 1e-8 * scale


def test_converge_command(tmp_path):
    path = write_config(tmp_path / "c.cfg", mode="converge", N="4", seed="0")
    out = tmp_path / "out"
    assert main(["converge", "--config", path, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "converge.csv").read_text().splitlines()))
    assert len(rows) == 3  # dt_levels
    dts = [float(r["dt"]) for r in rows]
    assert dts == sorted(dts, reverse=True)
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


# The shipped converge config on one cell per subdomain.  That mesh holds no
# divergence-free velocity of the stream function's shape: the smooth mode is
# round-off, E0 about 3e-31 on the unit channel and 2e-24 on the long one.
# Their errors fit rates of 0.575 and 0.547, which would pass the rate
# threshold: only the round-off verdict makes the run exit 4.
@pytest.mark.parametrize("command", ["converge", "lambda-sweep"])
@pytest.mark.parametrize("geometry", [{}, {"L": "3.0", "H_f": "0.2", "H_s": "0.5"}],
                         ids=["unit", "long"])
def test_roundoff_smooth_mode_exits_4(tmp_path, capsys, command, geometry):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "converge.cfg"
    keys = dict(line.split(" = ") for line in shipped.read_text().splitlines())
    keys.update(nx="1", ny_f="1", ny_s="1", **geometry)
    path = tmp_path / "r.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "round-off" in capsys.readouterr().err


# One cell per subdomain, T = 0.25, N = 2 (ddt = 0.125 and 0.0625): once
# lambda M_if swamps rho_f / ddt M_f, the Robin-Robin fluid saddle point loses
# its pressure constant and is singular, for every lambda from 10^16.9
# (ddt = 0.125) or 10^17.3 (ddt = 0.0625) up to the largest double.
@pytest.mark.parametrize("lam", ["1e18", "1e40", "1e158"])
def test_extreme_lambda_converge_exits_3(tmp_path, capsys, lam):
    path = write_config(tmp_path / "x.cfg", nx="1", ny_f="1", ny_s="1", N="2",
                        T="0.25", mode="converge", dt_levels="2", seed="1",
                        **{"lambda": lam})
    assert main(["converge", "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "Traceback" not in err


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


def test_dn_compare_without_blowup_exits_4(tmp_path, capsys):
    # heavy solid: no added-mass blow-up, so the contrast threshold fails
    path = write_config(tmp_path / "d.cfg", mode="dn-compare",
                        rho_s="1000.0", N="40")
    assert main(["dn-compare", "--config", path,
                 "--out", str(tmp_path / "o")]) == 4
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command,codes", [("stability", (0,)), ("dn-compare", (0, 3))])
def test_tiny_step_scale_overflows_silently(tmp_path, command, codes):
    """At T = 1e-300 on the one-cell channel the scale of the first solve's
    backward-error check passes the largest double: it is a silent inf, and
    no overflow warning leaves main."""
    path = write_config(tmp_path / "t.cfg", mode=command, nx="1", ny_f="1",
                        ny_s="1", N="2", T="1e-300")
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) in codes


def test_dn_compare_blowup_exits_0(tmp_path):
    path = write_config(tmp_path / "d.cfg", mode="dn-compare", N="120")
    out = tmp_path / "o"
    assert main(["dn-compare", "--config", path, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "dn_compare.csv").read_text().splitlines()))
    e0 = float(rows[0]["energy_dn"])
    assert max(float(r["energy_dn"]) for r in rows) >= 1e6 * e0


def test_dn_compare_takes_one_substep_per_window(tmp_path, capsys):
    """Both schemes of dn-compare step T / N whatever m is: m = 3 writes the
    CSV and stdout of m = 1 byte for byte, with the same exit code."""
    runs = []
    for m in ("1", "3"):
        path = write_config(tmp_path / f"m{m}.cfg", mode="dn-compare", N="40", m=m)
        out = tmp_path / f"m{m}"
        code = main(["dn-compare", "--config", path, "--out", str(out)])
        runs.append((code, (out / "dn_compare.csv").read_bytes(),
                     capsys.readouterr().out))
    assert runs[0] == runs[1]


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
    from fsisplit import experiments

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
    from fsisplit import experiments

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
    from fsisplit import experiments

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


@pytest.mark.parametrize("command", ["converge", "lambda-sweep"])
def test_substeps_not_dividing_reference_refinement(tmp_path, command):
    # m = 3 does not divide the 8 reference steps per finest window
    path = write_config(tmp_path / "m3.cfg", mode=command, N="2", m="3",
                        dt_levels="2", seed="0")
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) in (0, 4)


def test_lambda_sweep_assembles_each_stiffness_once(tmp_path, monkeypatch):
    """Every solver and diagnostic of all Robin weights and dt levels shares
    one fluid and two solid stiffness matrices: (l1, l2), and (1, 0) for the
    solid extension of the initial data."""
    from fsisplit import splitting

    calls = Counter()

    def counting(name):
        original = getattr(splitting, name)

        def wrapper(space, *coeffs):
            calls[(name,) + coeffs] += 1
            return original(space, *coeffs)
        return wrapper

    for name in ("assemble_symgrad", "assemble_elasticity"):
        monkeypatch.setattr(splitting, name, counting(name))
    path = write_config(tmp_path / "l.cfg", mode="lambda-sweep", dt_levels="2",
                        seed="0", mu="0.1", l1="1.0", l2="1.0")
    assert main(["lambda-sweep", "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    assert calls == {("assemble_symgrad", 0.1): 1,
                     ("assemble_elasticity", 1.0, 1.0): 1,
                     ("assemble_elasticity", 1.0, 0.0): 1}


def test_lambda_sweep_holds_one_reference(tmp_path, monkeypatch):
    """Each Robin weight's monolithic reference is freed before the next
    weight's study starts."""
    import gc
    import weakref

    from fsisplit import experiments

    convergence, refs = experiments.convergence, []

    def tracking(*args):
        gc.collect()
        assert all(ref() is None for ref in refs)
        result = convergence(*args)
        refs.append(weakref.ref(result[3]))
        return result

    monkeypatch.setattr(experiments, "convergence", tracking)
    path = write_config(tmp_path / "l.cfg", mode="lambda-sweep", dt_levels="2",
                        seed="0")
    assert main(["lambda-sweep", "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    assert len(refs) == 3


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    from fsisplit import cli
    from fsisplit.assembly import SingularSystemError

    def boom(cfg, disc, out_dir):
        raise SingularSystemError("pivot")

    monkeypatch.setitem(cli.COMMANDS, "stability", boom)
    path = write_config(tmp_path / "a.cfg")
    assert main(["stability", "--config", path, "--out", str(tmp_path)]) == 3


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    import fsisplit.cli as cli

    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.00 EiB")

    monkeypatch.setattr(cli, "Discretization", no_memory)
    path = write_config(tmp_path / "a.cfg")
    assert main(["stability", "--config", path, "--out", str(tmp_path)]) == 3
    assert "solver failure: Unable to allocate" in capsys.readouterr().err


def test_unusable_out_exits_2(tmp_path, capsys):
    """An --out that is a file or lies under one, and a CSV that cannot be
    written inside the command, exit 2 with no traceback."""
    path = write_config(tmp_path / "a.cfg", N="2")
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "o" / "stability.csv").mkdir(parents=True)  # not a file
    for out in (blocker, blocker / "sub", tmp_path / "o"):
        assert main(["stability", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("output error: ")


def test_inaccurate_solve_exits_3(tmp_path, monkeypatch):
    import scipy.sparse.linalg as spla
    splu = spla.splu

    class Perturbed:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b, trans="N"):
            return 1.001 * self._lu.solve(b, trans)

    monkeypatch.setattr(spla, "splu", lambda A, **kw: Perturbed(splu(A, **kw)))
    path = write_config(tmp_path / "a.cfg")
    assert main(["stability", "--config", path, "--out", str(tmp_path)]) == 3


def test_csv_floats_full_precision(tmp_path):
    path = write_config(tmp_path / "a.cfg", N="2")
    out = tmp_path / "p"
    assert main(["stability", "--config", path, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "stability.csv").read_text().splitlines()))
    val = rows[1]["E"]
    # 17 significant digits survive a float round-trip exactly
    assert f"{float(val):.17g}" == val
