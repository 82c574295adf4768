"""Stripping solved coordinates (``degree.strip_solved``) and the CLI paths
that print only the class and the dimension (``degree.degree_class``).

The oracle is always the full pipeline on the unreduced map: the reduction
deg f = <u> * deg g must give an equal class and dimension, and every
command that uses it must print that class: a named form as the full path
prints it, and otherwise a diagonal isometric to the full map's.
"""

import importlib.util
import json
import random
import re
import sys
from pathlib import Path

import pytest

import ekl.cli
from ekl.cli import main
from conftest import MAP_FAILURES
from ekl.degree import MapSpec, _graded_class, degree_class, ekl_degree, strip_solved
from ekl.gw import (
    classify_diagonal,
    gw_add,
    gw_equal,
    gw_mul,
    recognize_units,
    render_units,
    unit_class,
    units_class,
)
from ekl.quotmap import QuotientSpec, build_D_odd_partial, build_Sn_full, build_typeBC_full
from ekl.scalar import GF, QQ, SquareClass, legendre

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
P = 32003


def load_workloads():
    """``perfbench/workloads.py``, registered so that its dataclasses resolve."""
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_workloads"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def untimed(text: str) -> str:
    return re.sub(r"timing_seconds: [0-9.]+\n", "", text)


def full_class(f):
    """``degree_class`` by the full pipeline on the unreduced map."""
    result = ekl_degree(f)
    return result.dimension, result.gw_class


# ---------------------------------------------------------------------------
# the reduction against the full pipeline


def planted_map(rng: random.Random) -> tuple[list[str], list[str], list[tuple[int, int, int]]]:
    """Variables, components and planted (component, variable, c) triples.

    The core (g1, g2) = (a y1^p + b y1 y2, d y2^q) in y1, y2 vanishes only at
    the origin.  Each planted component c*t + h has h free of t, with cross
    terms but no linear term, and a multiple r * (c*t + h) is added to a
    core component, so t also occurs in powers and products there.  The
    ideal is (g1, g2, planted), so the quotient stays finite at the origin.
    """
    ts = [f"t{j}" for j in range(1, rng.randint(1, 2) + 1)]
    planted = []
    for j, t in enumerate(ts):
        pool = ["y1*y2", "y1^2", "y2^2", "y1^2*y2"] + [f"{s}^2" for s in ts[:j]] + [
            f"y1*{s}" for s in ts[:j]
        ]
        terms = rng.sample(pool, rng.randint(1, 3))
        h = " + ".join(f"{rng.choice((1, -1, 2, -3))}*{m}" for m in terms)
        planted.append((t, rng.choice((1, -1, 3, -2)), h))
    core = [
        f"{rng.choice((1, 2, -3))}*y1^{rng.randint(2, 3)} + {rng.choice((1, -2))}*y1*y2",
        f"{rng.choice((1, -1, 5))}*y2^{rng.randint(1, 3)}",
    ]
    for k in range(2):
        t, c, h = rng.choice(planted)
        r = rng.choice(("1", t, "y1", f"{t}*y2", "-2", f"y1 + {t}^2"))
        core[k] = f"{core[k]} + ({r})*({c}*{t} + {h})"
    variables = ["y1", "y2"] + ts
    rng.shuffle(variables)
    components = core + [f"{c}*{t} + {h}" for t, c, h in planted]
    order = list(range(len(components)))
    rng.shuffle(order)
    components = [components[i] for i in order]
    triples = [
        (order.index(2 + j), variables.index(t), c) for j, (t, c, _) in enumerate(planted)
    ]
    return variables, components, triples


@pytest.mark.parametrize("field", [QQ, GF(P)], ids=["q", f"fp{P}"])
def test_strip_matches_full_pipeline_on_planted_maps(field):
    rng = random.Random(20261018)
    parities, coefficients, units = set(), set(), []
    for _ in range(24):
        variables, components, triples = planted_map(rng)
        f = MapSpec.from_strings(variables, components, field)
        g, u = strip_solved(f)
        assert len(g.ring) < len(f.ring)
        full, reduced = ekl_degree(f), ekl_degree(g)
        assert reduced.dimension == full.dimension
        assert gw_equal(gw_mul(unit_class(u, field), reduced.gw_class), full.gw_class)
        parities.update((i + k) % 2 for i, k, _ in triples)
        coefficients.update(c for _, _, c in triples)
        units.append(u)
    assert parities == {0, 1}
    assert coefficients == {1, -1, 3, -2}
    if field == QQ:
        classes = {SquareClass.of(u).rep for u in units}
        assert min(classes) < 0 and max(abs(a) for a in classes) > 1
    else:
        assert {legendre(u.residue, P) for u in units} == {1, -1}


def test_strip_shrinks_the_paper_families():
    g, u = strip_solved(build_D_odd_partial(5, QQ).map)
    assert len(g.ring) == 2 and u == -1
    g, u = strip_solved(build_Sn_full(5, QQ).map)
    assert len(g.ring) == 4 and u == 1
    b3 = build_typeBC_full(3, QQ).map
    g, u = strip_solved(b3)
    assert g is b3 and u == 1


def test_strip_takes_the_fewest_terms_first():
    xyz = ("x", "y", "z")
    # 3*z + x*y (i + k = 2 + 2, two terms) beats x + y + z^2 (three terms)
    g, u = strip_solved(MapSpec.from_strings(xyz, ["x + y + z^2", "x^2 + y^3 + z^3", "3*z + x*y"]))
    assert g.ring == ("x", "y") and u == 3
    assert g.component_texts() == ["1/9*x^2*y^2 + x + y", "-1/27*x^3*y^3 + y^3 + x^2"]
    # a tie within x + y + z^2 goes to x (i + k = 1 + 0)
    g, u = strip_solved(MapSpec.from_strings(xyz, ["y^2 + x*z", "x + y + z^2", "z^3 + x^2"]))
    assert g.ring == ("y", "z") and u == -1
    assert g.component_texts() == ["-1*z^3 + y^2 - y*z", "z^4 + 2*y*z^2 + z^3 + y^2"]


def test_strip_keeps_a_map_whose_component_vanishes(tmp_path, capsys):
    components = ["x - y", "x - y + x^2 - y^2"]
    f = MapSpec.from_strings(("x", "y"), components)
    g, u = strip_solved(f)
    assert g is f and u == 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "components": components}))
    assert run(capsys, "degree", str(path), "--format", "invariants") == (
        3,
        "",
        "not supported at origin: no pure power of 'y' among the leading monomials; "
        "the quotient is infinite-dimensional\n",
    )


def test_failure_on_the_stripped_map_reports_the_stripped_map(tmp_path, capsys):
    # the stripped map (y^2, y*z) lacks a pure power of z
    path = tmp_path / "m.json"
    components = ["x + z^2", "y^2", "y*z"]
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "components": components}))
    named = run(capsys, "degree", str(path))
    assert named[0] == 3 and "'z'" in named[2]
    assert run(capsys, "degree", str(path), "--format", "invariants") == named
    # the full path of --format diag builds the full map's quotient
    assert "'x'" in run(capsys, "degree", str(path), "--format", "diag")[2]


# ---------------------------------------------------------------------------
# the one-pass fold of h H and <u> against the composed class


def composed_class(f):
    """``degree_class`` composed from the class operations:
    gw_mul(unit_class(u), gw_add(units_class(h, h), middle class)), with
    u = 1 when nothing is stripped."""
    g, u = strip_solved(f)
    dimension, h, middle = _graded_class(g)
    return dimension, gw_mul(unit_class(u, g.field), gw_add(units_class(h, h, (), g.field), middle))


def assert_fold_is_composed(maps):
    """``degree_class`` equals ``composed_class`` in every ``GWClass`` field,
    or both raise the same failure; returns how many stripped maps had a
    unit that is not a square."""
    folded = 0
    for f in maps:
        try:
            expected = composed_class(f)
        except MAP_FAILURES as e:
            with pytest.raises(type(e)):
                degree_class(f)
            continue
        assert degree_class(f) == expected, f.components
        g, u = strip_solved(f)
        folded += g is not f and unit_class(u, f.field) != unit_class(f.field.one, f.field)
    return folded


@pytest.mark.parametrize("fld", [QQ, GF(7), GF(P)], ids=["q", "fp7", f"fp{P}"])
@pytest.mark.parametrize("seed", [1, 5])
def test_the_fold_is_the_composed_class_on_random_maps(seed, fld):
    maps = [MapSpec.from_json(m.to_json(), fld) for m in load_workloads().random_maps(seed)]
    assert assert_fold_is_composed(maps) > 0


@pytest.mark.parametrize("field", ["q", f"fp:{P}"])
def test_the_fold_is_the_composed_class_on_ladder_members(field):
    parser = ekl.cli.build_parser()
    maps = [
        ekl.cli._build_quotient_spec(parser.parse_args(["quotient", *args, "--field", field])).map
        for _, args, _ in load_workloads().QUOTIENT_LADDER
    ]
    assert len(maps) == 17
    assert_fold_is_composed(maps)


# ---------------------------------------------------------------------------
# CLI outputs against the full path


def quotient_argvs():
    ladder = [("quotient",) + args for _, args, _ in load_workloads().QUOTIENT_LADDER]
    return ladder + [
        ("quotient", "--type", "D", "--rank", str(r), "--parabolic", f"D{r - 1}") for r in (11, 13)
    ]


def test_quotient_prints_what_the_full_map_prints(capsys, monkeypatch):
    argvs = quotient_argvs()
    stripped = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(ekl.cli, "degree_class", full_class)
    for argv, got in zip(argvs, stripped):
        code, out, err = run(capsys, *argv)
        assert (got[0], untimed(got[1]), got[2]) == (code, untimed(out), err), argv
        assert code == 0


def test_quotient_prints_the_class_paths_diagonal_when_no_units_show(capsys, monkeypatch):
    # <3> * deg(14/3*y^3) has the diagonal <-3,3,14>, the full map <-21,14,21>
    f = MapSpec.from_strings(("x", "y"), ["3*x + y^2", "5*y^3 + x*y"])
    # degree 3, with the Weyl data of S3 over S2 x S1, which has 3 cosets
    spec = QuotientSpec("Sn-full", (3,), f, (1, 1), (1, 3), "A", 2, (2, 1))
    monkeypatch.setattr(ekl.cli, "build_Sn_full", lambda n, field: spec)
    monkeypatch.setattr(ekl.cli, "recognize_units", lambda c: None)
    code, out, err = run(capsys, "quotient", "--type", "Sn", "--n", "3")
    # f is no S3 quotient map, so its class is not the predicted one
    assert (code, err) == (1, "") and "computed: ⟨-3,3,14⟩\n" in out
    assert gw_equal(degree_class(f)[1], full_class(f)[1])


def recorded_pipelines(monkeypatch) -> list:
    """The names called, in order, through ``ekl.cli.degree_class`` and
    ``ekl.cli.ekl_degree``."""
    calls: list = []
    for name in ("degree_class", "ekl_degree"):
        real = getattr(ekl.cli, name)
        monkeypatch.setattr(ekl.cli, name, lambda f, name=name, real=real: calls.append(name) or real(f))
    return calls


def test_class_only_outputs_over_fp_run_the_class_path_once(tmp_path, capsys, monkeypatch):
    calls = recorded_pipelines(monkeypatch)
    path = tmp_path / "a22.json"
    for argv in (
        ("--type", "B", "--rank", "4"),
        ("--type", "A", "--blocks", "3,2,1"),
        ("--type", "A", "--blocks", "2,2", "--emit-map", str(path)),
    ):
        calls.clear()
        code, out, _ = run(capsys, "quotient", *argv, "--field", f"fp:{P}")
        assert code == 0 and "verdict: MATCH" in out
        assert calls == ["degree_class"]
    calls.clear()
    code, out, _ = run(capsys, "degree", str(path), "--format", "named", "--field", f"fp:{P}")
    assert code == 0 and calls == ["degree_class"]
    shown = classify_diagonal([int(d) for d in out.strip("⟨⟩\n").split(",")], GF(P))
    assert gw_equal(shown, ekl_degree(MapSpec.from_json(path.read_text(), GF(P))).gw_class)
    calls.clear()
    assert run(capsys, "degree", str(path), "--format", "diag", "--field", f"fp:{P}")[0] == 0
    assert calls == ["ekl_degree"]  # the full map's diagonal


def test_quotient_emit_map_prints_what_the_call_without_it_prints(tmp_path, capsys, monkeypatch):
    # the emitted file is the full map whichever class path runs
    calls = []
    real = ekl.cli.degree_class
    monkeypatch.setattr(ekl.cli, "degree_class", lambda f: calls.append(f) or real(f))
    target = tmp_path / "m.json"
    for blocks in ("2,2", "3,2,1"):
        argv = ("quotient", "--type", "A", "--blocks", blocks)
        plain = run(capsys, *argv)
        emitted = run(capsys, *argv, "--emit-map", str(target))
        assert plain[0] == emitted[0] == 0
        assert untimed(emitted[1]) == untimed(plain[1])
        assert emitted[2] == f"wrote {target}\n"
        assert MapSpec.from_json(target.read_text()) == calls[-1]
    assert len(calls) == 4


@pytest.mark.parametrize("field", ["q", f"fp:{P}"])
def test_degree_invariants_match_the_closed_form(tmp_path, capsys, field):
    workloads = load_workloads()
    for op in workloads.random_ops(1, field, str(tmp_path)):
        code, out, err = run(capsys, *op.argv)
        assert op.check(code, out) is None, (op.name, out, err)
        assert err == ""


@pytest.mark.parametrize("field, fld", [("q", QQ), (f"fp:{P}", GF(P))], ids=["q", f"fp{P}"])
def test_degree_named_prints_the_class_paths_class(tmp_path, capsys, monkeypatch, field, fld):
    calls = recorded_pipelines(monkeypatch)
    named = 0
    for op in load_workloads().random_ops(1, field, str(tmp_path)):
        path = op.argv[1]
        full = ekl_degree(MapSpec.from_json(Path(path).read_text(), fld)).gw_class
        calls.clear()
        code, out, err = run(capsys, "degree", path, "--field", field)
        assert (code, err, calls) == (0, "", ["degree_class"])
        cls = degree_class(MapSpec.from_json(Path(path).read_text(), fld))[1]
        assert gw_equal(cls, full) and out == render_units(cls, recognize_units(cls)) + "\n"
        shape = recognize_units(full)
        if shape and (shape.ones or shape.minus_ones):
            assert out == render_units(full, shape) + "\n"  # a named form is the class's
            named += 1
    assert named > 0 or field != "q"
