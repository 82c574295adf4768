"""Every name the benchmark tracer wraps is still bound in ``ekl``, and the
class path still calls the parser, quotient, determinant, class and builder
names through them.

``perfbench/tracer.py`` patches module attributes by name and reports a
missing one as ``trace.missing_names`` rather than failing, so a refactor
that drops an import (say ``ekl.gw.factorize``) would silently lose a
per-layer metric.  The name lists are read from that file, not copied.  A
name that stays bound but is no longer called through its binding loses
its metric just as silently, so the calls are counted too.
"""

import importlib
import importlib.util
from pathlib import Path

import ekl.cli
import ekl.degree
import ekl.gw

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    pairs = [(module, attr) for module, attr, _ in tracer.STAGES + tracer.HELPERS]
    assert ("ekl.gw", "hilbert_symbol") in pairs and ("ekl.cli", "render_class") in pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def counted(monkeypatch, module, attr, calls):
    """Count the calls through ``module.attr``, the binding the tracer wraps."""
    real = getattr(module, attr)

    def counting(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)


def test_degree_class_calls_the_traced_determinant_names(monkeypatch):
    # a bypass of these bindings would read as zero poly.det_calls, socle and Jacobian time
    calls: dict = {}
    for attr in ("poly_det", "socle_element", "jacobian_element"):
        counted(monkeypatch, ekl.degree, attr, calls)
    f = ekl.degree.MapSpec.from_strings(("x", "y"), ["3*x + y^2", "y^3"])
    g, _ = ekl.degree.strip_solved(f)
    assert g.ring == ("y",)
    assert ekl.degree.degree_class(f)[0] == 3
    assert calls == {"poly_det": 2, "socle_element": 1, "jacobian_element": 1}  # E and J of g


def test_map_file_and_degree_class_call_the_traced_front_end_names(monkeypatch):
    # a bypass of these bindings would read as zero poly.parse, localg.groebner,
    # localg.staircase and localg.origin_check time
    calls: dict = {}
    for attr in ("parse_poly", "groebner", "quotient_presentation", "origin_supported"):
        counted(monkeypatch, ekl.degree, attr, calls)
    f = ekl.degree.MapSpec.from_json('{"variables": ["x", "y"], "components": ["3*x + y^2", "y^3"]}')
    assert calls == {"parse_poly": 2}
    assert ekl.degree.degree_class(f)[0] == 3
    # one quotient, of the stripped map g = y^3
    assert calls == {"parse_poly": 2, "groebner": 1, "quotient_presentation": 1, "origin_supported": 1}


def test_degree_class_calls_the_traced_class_names(monkeypatch):
    # a bypass of these bindings would read as zero gw.invariants and gw.diagonalize time
    calls: dict = {}
    counted(monkeypatch, ekl.degree, "classify", calls)
    counted(monkeypatch, ekl.gw, "diagonalize", calls)
    f = ekl.degree.MapSpec.from_strings(("x", "y"), ["3*x + y^2", "y^3"])
    # g = y^3 is graded with Q = <1, y, y^2> and D = 2: 1 pairs with y^2, and
    # the middle block is the one of y
    assert ekl.degree.degree_class(f)[0] == 3
    assert calls == {"classify": 1, "diagonalize": 1}


QUOTIENT_ARGV = {
    "build_typeA_partial": ["--type", "A", "--blocks", "2,1"],
    "build_Sn_full": ["--type", "Sn", "--n", "3"],
    "build_typeBC_full": ["--type", "B", "--rank", "2"],
    "build_D_full": ["--type", "D", "--rank", "3"],
    "build_D_odd_partial": ["--type", "D", "--rank", "5", "--parabolic", "D4"],
}


def test_quotient_calls_the_traced_builder_names(monkeypatch, capsys):
    stages = [attr for module, attr, _ in load_tracer().STAGES if module == "ekl.cli"]
    assert {a for a in stages if getattr(ekl.cli, a).__module__ == "ekl.quotmap"} == set(QUOTIENT_ARGV)
    for attr, argv in QUOTIENT_ARGV.items():
        calls: dict = {}
        counted(monkeypatch, ekl.cli, attr, calls)
        assert ekl.cli.main(["quotient", *argv]) == 0
        assert "verdict: MATCH" in capsys.readouterr().out
        assert calls == {attr: 1}
