import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ekl
import ekl.cli
from ekl.cli import main
from ekl.degree import NotSupportedAtOriginError, ZeroSocleError
from ekl.gw import DegenerateFormError
from ekl.localg import InfiniteQuotientError, UnitIdealError
from ekl.scalar import FactorBoundError
from ekl.weyl import (
    EnumerationBudgetError,
    aP_formula_typeA,
    build_root_system,
    weyl_order,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAP_S2 = json.dumps({"variables": ["x", "y"], "components": ["x + y", "x*y"]})


def test_degree_named(tmp_path, capsys):
    path = write(tmp_path, "m.json", MAP_S2)
    code, out, err = run(capsys, "degree", path)
    assert code == 0
    assert out.strip() == "1<1> + 1<-1>"


def test_degree_identity_one_var(tmp_path, capsys):
    path = write(tmp_path, "m.json", json.dumps({"variables": ["x"], "components": ["x"]}))
    code, out, _ = run(capsys, "degree", path)
    assert code == 0
    assert out.strip() == "1<1>"


def test_degree_formats(tmp_path, capsys):
    path = write(tmp_path, "m.json", MAP_S2)
    code, out, _ = run(capsys, "degree", path, "--format", "diag")
    assert code == 0 and out.strip() == "⟨-2,2⟩"
    code, out, _ = run(capsys, "degree", path, "--format", "invariants")
    assert code == 0
    assert "rank 2" in out and "signature 0" in out and "discriminant -1" in out
    code, out, _ = run(capsys, "degree", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == "2"
    assert report["socle_coordinates"] == ["0", "-1"]
    assert report["named_form"] == "1<1> + 1<-1>"


def test_degree_unary_minus_binds_looser_than_power(tmp_path, capsys):
    # -x^2 is -(x^2), so both spellings are the same map
    outs = []
    for components in (["-x^2 + y^2", "x*y"], ["y^2 - x^2", "x*y"]):
        path = write(tmp_path, "m.json", json.dumps({"variables": ["x", "y"], "components": components}))
        code, out, _ = run(capsys, "degree", path, "--format", "invariants")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "signature -2" in outs[0].splitlines()


def test_degree_json_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "m.json", MAP_S2)
    code, out, _ = run(capsys, "degree", path, "--format", "json")
    report = json.loads(out)
    path2 = write(tmp_path, "again.json", json.dumps(report["input"]))
    code2, out2, _ = run(capsys, "degree", path2, "--format", "json")
    report2 = json.loads(out2)
    report.pop("timing_seconds")
    report2.pop("timing_seconds")
    assert report == report2


def test_degree_exit_code_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"variables": ["x"], "components": ["x +* 2"]}')
    code, out, err = run(capsys, "degree", path)
    assert code == 2
    assert "parse error" in err
    path2 = write(tmp_path, "bad2.json", "not even json")
    code, _, err = run(capsys, "degree", path2)
    assert code == 2


@pytest.mark.parametrize(
    "command, content",
    [
        (("degree",), '["x", "y"]'),
        (("gw", "classify"), "[1, 2]"),
        (("gw", "classify"), '[["1/0"]]'),
    ],
    ids=["map-top-level-list", "gram-rows-not-lists", "gram-zero-denominator"],
)
def test_malformed_input_file_is_parse_error(tmp_path, capsys, command, content):
    path = write(tmp_path, "in.json", content)
    code, out, err = run(capsys, *command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"components": ["x"]}', 'map file has no "variables" key'),
        ('{"variables": ["x"]}', 'map file has no "components" key'),
        ("3", 'a map file is a JSON object with "variables" and "components"'),
        ('{"variables": ["x", "x"], "components": ["x", "x"]}', "variable 'x' is repeated"),
        ('{"variables": "xy", "components": ["x^2", "y^2"]}', '"variables" must be a list of strings'),
        ('{"variables": ["x"], "components": "x"}', '"components" must be a list of strings'),
        ('{"variables": "x1", "components": ["x", "x^2"]}', '"variables" must be a list of strings'),
        ('{"variables": ["x", "2"], "components": ["x", "x^2"]}', "variable name '2' is not one identifier"),
        ('{"variables": ["x", "y z"], "components": ["x", "x^2"]}', "variable name 'y z' is not one identifier"),
        ('{"variables": ["x", "y.z"], "components": ["x", "x^2"]}', "variable name 'y.z' is not one identifier"),
    ],
    ids=[
        "no-variables",
        "no-components",
        "top-level-number",
        "repeated-variable",
        "variables-string",
        "components-string",
        "variables-string-with-digit",
        "variable-number",
        "variable-two-tokens",
        "variable-bad-character",
    ],
)
def test_map_file_shape_error_is_named(tmp_path, capsys, content, message):
    path = write(tmp_path, "m.json", content)
    code, out, err = run(capsys, "degree", path)
    assert code == 2
    assert out == ""
    assert err == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [("degree", "m.json"), ("quotient", "--type", "Sn", "--n", "2"), ("gw", "classify", "g.json")],
    ids=["degree", "quotient", "gw-classify"],
)
def test_bad_field_has_one_prefix(tmp_path, capsys, command):
    write(tmp_path, "m.json", MAP_S2)
    write(tmp_path, "g.json", '[["1"]]')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    code, out, err = run(capsys, *argv, "--field", "zz")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown field 'zz'")


def readme_exit_codes() -> dict:
    """Exception class name -> (exit code, stderr prefix), from the README's
    exit-code table; the rows that name no class are keyed by their prefix."""
    table = {}
    rows = re.findall(r"^\| (\d+) \| (.*) \| `([a-z ]+):` \|$", README.read_text(), re.M)
    for code, failure, prefix in rows:
        for key in re.findall(r"`(\w+Error)`", failure) or [prefix]:
            table[key] = (int(code), prefix)
    return table


@pytest.mark.parametrize(
    "error, key",
    [
        (NotSupportedAtOriginError("fiber"), "NotSupportedAtOriginError"),
        (InfiniteQuotientError("x"), "InfiniteQuotientError"),
        (UnitIdealError("1 is in the ideal"), "UnitIdealError"),
        (ZeroSocleError("vanished"), "ZeroSocleError"),
        (DegenerateFormError("radical"), "DegenerateFormError"),
        (FactorBoundError("cofactor 91"), "FactorBoundError"),
        (EnumerationBudgetError("budget 4"), "EnumerationBudgetError"),
        (ArithmeticError("J differs from dim * E"), "internal error"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_library_failure_exit_codes_match_readme(tmp_path, capsys, monkeypatch, error, key):
    def fail(spec):
        raise error

    # over Q the named format asks degree_class first, and ekl_degree for a diagonal
    monkeypatch.setattr(ekl.cli, "degree_class", fail)
    monkeypatch.setattr(ekl.cli, "ekl_degree", fail)
    code, prefix = readme_exit_codes()[key]
    path = write(tmp_path, "m.json", MAP_S2)
    assert run(capsys, "degree", path) == (code, "", f"{prefix}: {error}\n")


@pytest.mark.parametrize("error", [MemoryError(), ArithmeticError()], ids=lambda e: type(e).__name__)
def test_internal_error_without_text_is_named_by_its_type(tmp_path, capsys, monkeypatch, error):
    def fail(spec):
        raise error

    monkeypatch.setattr(ekl.cli, "degree_class", fail)
    path = write(tmp_path, "m.json", MAP_S2)
    assert run(capsys, "degree", path) == (1, "", f"internal error: {type(error).__name__}\n")


# Each README example next to what its comment promises it prints.
README_EXAMPLES = (
    ("ekl degree s2.json", "1<1> + 1<-1>"),
    ("ekl degree s2.json --format json", '"named_form": "1<1> + 1<-1>"'),
    ("ekl quotient --type A --blocks 2,2", "computed: 4<1> + 2<-1>"),
    ("ekl quotient --type A --blocks 2,2", "verdict: MATCH"),
    ("ekl quotient --type D --rank 5 --parabolic D4", "quotient dimension: 10"),
    ("ekl quotient --type D --rank 5 --parabolic D4", "alpha = "),
    ("ekl quotient --type B --rank 3 --blocks 2,1", "family: B3-partial(2,1)"),
    ("ekl quotient --type B --rank 3 --blocks 2,1", "computed: 12<1> + 12<-1>"),
    ("ekl quotient --type D --rank 6 --blocks 2,2", "quotient dimension: 1440"),
    ("ekl weyl ap --type E6 --remove 1", "a_P: 3"),
    ("ekl weyl ap --type E6 --remove 1,6", "a_P: 6"),
    ("ekl weyl ap --type F4 --remove 1", "a_P: 0"),
    ("ekl weyl ap --type F4 --remove 1", "shortcut: central longest word"),
    ("ekl gw classify gram.json", "named form: 1<1> + 1<-1>"),
)


@pytest.mark.parametrize("command, promised", README_EXAMPLES)
def test_readme_example_prints_what_its_comment_promises(
    tmp_path, capsys, monkeypatch, command, promised
):
    text = README.read_text()
    assert re.search(rf"^{re.escape(command)} +#", text, re.M), command
    for name, content in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", text, re.M | re.S):
        write(tmp_path, name, content)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command.split()[1:])
    assert (code, err) == (0, "")
    assert promised in out


def test_readme_exit_code_table_names_every_failure_class():
    documented = {key for key in readme_exit_codes() if key.endswith("Error")}
    assert documented == {cls.__name__ for cls, _, _ in ekl.cli.FAILURES}


def test_degree_exit_code_unknown_variable(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"variables": ["x"], "components": ["x + q"]}')
    code, _, err = run(capsys, "degree", path)
    assert code == 2


def test_degree_exit_code_not_origin(tmp_path, capsys):
    path = write(
        tmp_path,
        "m.json",
        json.dumps({"variables": ["x", "y"], "components": ["x*(x - 1)", "y"]}),
    )
    code, _, err = run(capsys, "degree", path)
    assert code == 3
    assert "origin" in err


@pytest.mark.parametrize("components, field", [(["0"], "q"), (["0"], "fp:3"), (["3*x"], "fp:3")])
def test_degree_of_the_zero_map_is_not_supported_at_origin(tmp_path, capsys, components, field):
    # the ideal is zero, its basis is empty and no power of x is a leading monomial
    path = write(tmp_path, "m.json", json.dumps({"variables": ["x"], "components": components}))
    code, out, err = run(capsys, "degree", path, "--field", field)
    assert (code, out) == (3, "")
    assert err.startswith("not supported at origin: no pure power of 'x' ")


def test_degree_zero_denominator_in_prime_field(tmp_path, capsys):
    path = write(tmp_path, "m.json", json.dumps({"variables": ["x"], "components": ["1/3*x"]}))
    code, _, err = run(capsys, "degree", path, "--field", "fp:3")
    assert code == 2
    assert err.startswith("parse error: ") and "GF(3)" in err
    code, out, _ = run(capsys, "degree", path, "--field", "fp:5")
    assert code == 0


def test_degree_json_standard_monomials(tmp_path, capsys):
    spec = {"variables": ["x", "y", "z"], "components": ["x^2 + y*z", "y^3", "z^2 - x*y"]}
    path = write(tmp_path, "m.json", json.dumps(spec))
    code, out, _ = run(capsys, "degree", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["standard_monomials"] == [
        "1", "z", "y", "x", "z^2", "y*z", "x*z", "y^2", "z^3", "y*z^2", "x*z^2", "y*z^3"
    ]


def test_degree_field_flag(tmp_path, capsys):
    path = write(tmp_path, "m.json", MAP_S2)
    code, out, _ = run(capsys, "degree", path, "--field", "fp:5", "--format", "invariants")
    assert code == 0
    assert "rank 2" in out


def test_quotient_match_a22(capsys):
    code, out, _ = run(capsys, "quotient", "--type", "A", "--blocks", "2,2")
    assert code == 0
    assert "computed: 4<1> + 2<-1>" in out
    assert "verdict: MATCH" in out


def test_quotient_match_a111(capsys):
    code, out, _ = run(capsys, "quotient", "--type", "A", "--blocks", "1,1,1")
    assert code == 0
    assert "computed: 3<1> + 3<-1>" in out
    assert "verdict: MATCH" in out


def test_quotient_d5_d4(capsys):
    code, out, _ = run(capsys, "quotient", "--type", "D", "--rank", "5", "--parabolic", "D4")
    assert code == 0
    assert "verdict: MATCH" in out
    assert "alpha = " in out


def test_quotient_emit_map_roundtrip(tmp_path, capsys):
    out_path = str(tmp_path / "emitted.json")
    code, out, _ = run(
        capsys, "quotient", "--type", "A", "--blocks", "2,1", "--emit-map", out_path
    )
    assert code == 0
    data = json.loads(open(out_path).read())
    assert "family=A-partial" in data["comment"]
    code2, out2, _ = run(capsys, "degree", out_path)
    assert code2 == 0
    assert out2.strip() == "2<1> + 1<-1>"


def test_quotient_emit_map_unwritable(tmp_path, capsys):
    target = str(tmp_path / "missing" / "m.json")
    code, out, err = run(
        capsys, "quotient", "--type", "A", "--blocks", "2,1", "--emit-map", target
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


def test_quotient_bad_parameters(capsys):
    code, _, err = run(capsys, "quotient", "--type", "A")
    assert code == 2
    code, _, err = run(capsys, "quotient", "--type", "D", "--rank", "6", "--parabolic", "D5")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--type", "B", "--rank", "3", "--n", "3"), "error: --type B does not take --n\n"),
        (("--type", "Sn", "--n", "3", "--rank", "9"), "error: --type Sn does not take --rank\n"),
        (("--type", "Sn", "--n", "3", "--blocks", "2,1"), "error: --type Sn does not take --blocks\n"),
        (("--type", "A", "--blocks", "2,2", "--parabolic", "D4"), "error: --type A does not take --parabolic\n"),
        (("--type", "A", "--blocks", "2,2", "--rank", "3"), "error: --type A does not take --rank\n"),
        (("--type", "C", "--rank", "3", "--parabolic", "C2"), "error: --type C does not take --parabolic\n"),
        (("--type", "D", "--rank", "5", "--n", "5"), "error: --type D does not take --n\n"),
        (
            ("--type", "D", "--rank", "5", "--parabolic", "D4", "--blocks", "1"),
            "error: --parabolic and --blocks exclude each other\n",
        ),
        (("--type", "D", "--rank", "5", "--blocks", "4"), "error: blocks 4 do not fit type D5\n"),
        (("--type", "B", "--rank", "3", "--blocks", "2,2"), "error: blocks 2,2 do not fit type B3\n"),
        (("--type", "B", "--blocks", "2"), "error: --type B requires --rank\n"),
        (("--type", "A", "--blocks", "2,x"), "error: --blocks takes comma-separated block sizes, got '2,x'\n"),
    ],
)
def test_quotient_refuses_flags_the_type_does_not_take(capsys, argv, message):
    assert run(capsys, "quotient", *argv) == (2, "", message)


def test_quotient_blocks_skip_empty_tokens(capsys):
    # --blocks parses like --keep and --remove: 2,,2 reads as 2,2
    code, out, _ = run(capsys, "quotient", "--type", "A", "--blocks", "2,,2")
    assert code == 0
    assert "family: A-partial(2,2)\n" in out
    assert "verdict: MATCH\n" in out


def test_quotient_does_not_read_the_enumeration_budget():
    # the coset count is known, so it is the budget; EKL_ENUM_BUDGET caps `weyl ap` only
    src = os.path.dirname(os.path.dirname(ekl.__file__))
    for value in ("0", "abc"):
        proc = subprocess.run(
            [sys.executable, "-m", "ekl.cli", "quotient", "--type", "Sn", "--n", "4"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, EKL_ENUM_BUDGET=value),
            timeout=60,
        )
        assert proc.returncode == 0 and "verdict: MATCH\n" in proc.stdout, value


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _block_members(max_cosets):
    """(type, rank, blocks, |W/W_P|) for B/C rank 1..5 and D rank 2..5."""
    def order(label, n):  # |W(X_n)|, 1 for the empty tail
        return 2 ** (n - (label == "D" and n > 0)) * math.factorial(n)

    for label, ranks in (("B", range(1, 6)), ("C", range(1, 6)), ("D", range(2, 6))):
        for n in ranks:
            for size in range(1, n + 1):
                tail = n - size
                if label == "D" and tail == 1:
                    continue
                for blocks in _compositions(size):
                    parabolic = math.prod(map(math.factorial, blocks)) * order(label, tail)
                    if order(label, n) // parabolic <= max_cosets:
                        yield label, n, blocks, order(label, n) // parabolic


def test_quotient_block_members_match(capsys):
    members = list(_block_members(400))
    assert len(members) == 112
    for label, rank, blocks, cosets in members:
        argv = ("quotient", "--type", label, "--rank", str(rank), "--blocks", ",".join(map(str, blocks)))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert f"family: {label}{rank}-partial({','.join(map(str, blocks))})\n" in out, argv
        assert f"expected degree: {cosets}\nquotient dimension: {cosets}\n" in out, argv
        assert "verdict: MATCH\n" in out, argv


@pytest.mark.parametrize(
    "rank, blocks, computed",
    [("6", "2,2", "720<1> + 720<-1>"), ("7", "5", "336<1> + 336<-1>")],
)
def test_quotient_large_block_members(capsys, rank, blocks, computed):
    code, out, _ = run(capsys, "quotient", "--type", "D", "--rank", rank, "--blocks", blocks)
    assert code == 0
    assert f"computed: {computed}\npredicted: {computed}\nverdict: MATCH\n" in out


def test_weyl_ap_e6(capsys):
    code, out, _ = run(capsys, "weyl", "ap", "--type", "E6", "--remove", "1")
    assert code == 0
    assert "a_P: 3" in out
    assert "order 51840" in out
    assert "order 1920" in out
    assert "cosets: 27" in out


def test_weyl_ap_e6_remove_two(capsys):
    code, out, _ = run(capsys, "weyl", "ap", "--type", "E6", "--remove", "1,6")
    assert code == 0
    assert "a_P: 6" in out


def test_weyl_ap_shortcut(capsys):
    code, out, _ = run(capsys, "weyl", "ap", "--type", "F4", "--remove", "1")
    assert code == 0
    assert "a_P: 0" in out
    assert "central longest word" in out


def test_weyl_ap_keep(capsys):
    code, out, _ = run(capsys, "weyl", "ap", "--type", "D5", "--keep", "1,2,3,4")
    assert code == 0
    assert "a_P: 2" in out


@pytest.mark.parametrize("rank, cosets", [("A1", 2), ("A3", 24)])
@pytest.mark.parametrize("keep", ["", " "])
def test_weyl_ap_empty_keep_keeps_no_nodes(capsys, rank, cosets, keep):
    code, out, err = run(capsys, "weyl", "ap", "--type", rank, "--keep", keep)
    assert (code, err) == (0, "")
    assert "parabolic: keep [] (trivial), order 1\n" in out
    assert f"cosets: {cosets}\na_P: 0\n" in out


def test_weyl_ap_improper(capsys):
    code, _, err = run(capsys, "weyl", "ap", "--type", "A2", "--keep", "1,2")
    assert code == 2


@pytest.mark.parametrize(
    "flag, nodes, message",
    [
        ("--remove", "9", "error: nodes [9] are not in the diagram"),
        ("--keep", "x", "error: --keep takes comma-separated node numbers, got 'x'"),
        ("--remove", "x", "error: --remove takes comma-separated node numbers, got 'x'"),
        ("--keep", "1,2.5", "error: --keep takes comma-separated node numbers, got '1,2.5'"),
    ],
)
def test_weyl_ap_bad_nodes(capsys, flag, nodes, message):
    code, out, err = run(capsys, "weyl", "ap", "--type", "A3", flag, nodes)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


def test_weyl_ap_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("EKL_ENUM_BUDGET", "4")
    code, _, err = run(capsys, "weyl", "ap", "--type", "E6", "--remove", "1", "--method", "enumerate")
    assert code == 6
    assert err.startswith("budget exceeded: ")


def test_weyl_ap_budget_end_to_end():
    # A5 keep {1} has 360 cosets, one more than the budget
    src = os.path.dirname(os.path.dirname(ekl.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ekl.cli", "weyl", "ap", "--type", "A5", "--keep", "1",
         "--method", "enumerate"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, EKL_ENUM_BUDGET="359"),
        timeout=60,
    )
    assert proc.returncode == 6
    assert proc.stdout.endswith("cosets: 360\n")
    assert proc.stderr == "budget exceeded: coset enumeration exceeded the budget of 359 elements\n"


def test_weyl_ap_method_shortcut_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "ap", "--type", "F4", "--remove", "1", "--method", "shortcut"])
    assert exc.value.code == 2
    assert "invalid choice: 'shortcut'" in capsys.readouterr().err


def test_weyl_info(capsys):
    code, out, _ = run(capsys, "weyl", "info", "--type", "D5")
    assert code == 0
    assert "order: 1920" in out
    assert "positive roots: 20" in out
    assert "longest word length: 20" in out


def test_weyl_bad_type(capsys):
    code, _, err = run(capsys, "weyl", "info", "--type", "Q9")
    assert code == 2


@pytest.mark.parametrize("command", [("info",), ("ap", "--keep", "1")])
@pytest.mark.parametrize("label", ["", "A", "3", "E6.0"])
def test_weyl_malformed_type_label(capsys, command, label):
    code, out, err = run(capsys, "weyl", command[0], "--type", label, *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: invalid root system '{label}'\n"


@pytest.mark.parametrize("label, rank", [("A", 16), ("B", 12), ("C", 12), ("D", 12)])
def test_weyl_info_beyond_256_roots(capsys, label, rank):
    code, out, _ = run(capsys, "weyl", "info", "--type", f"{label}{rank}")
    npos = build_root_system(label, rank).npos
    assert code == 0
    assert f"order: {weyl_order(label, rank)}\n" in out
    assert f"positive roots: {npos}\n" in out
    assert f"longest word length: {npos}\n" in out


def test_weyl_ap_beyond_256_roots(capsys):
    code, out, _ = run(capsys, "weyl", "ap", "--type", "A16", "--remove", "1")
    assert code == 0
    assert f"a_P: {aP_formula_typeA([1, 16])}\n" in out
    assert "a_P: 1\n" in out
    keep = ",".join(str(k) for k in range(1, 13))
    code, out, _ = run(
        capsys, "weyl", "ap", "--type", "D13", "--keep", keep, "--method", "enumerate"
    )
    assert code == 0
    assert "cosets: 26\na_P: 2\n" in out


def test_weyl_too_many_roots_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "weyl", "info", "--type", "A100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: A100000 has 5000050000 positive roots; at most 65536 are supported\n"


@pytest.mark.parametrize("method", ["auto", "enumerate"])
@pytest.mark.parametrize("value", ["abc", "-1"])
def test_weyl_ap_malformed_budget_is_a_flag_error(capsys, monkeypatch, value, method):
    monkeypatch.setenv("EKL_ENUM_BUDGET", value)
    code, out, err = run(capsys, "weyl", "ap", "--type", "A3", "--keep", "1", "--method", method)
    assert code == 2
    assert out == ""
    assert err == f"error: EKL_ENUM_BUDGET must be a non-negative integer, not {value!r}\n"


def test_gw_classify_hyperbolic(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["0", "1"], ["1", "0"]]')
    code, out, _ = run(capsys, "gw", "classify", path)
    assert code == 0
    assert "named form: 1<1> + 1<-1>" in out


def test_gw_classify_identity2(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["1", "0"], ["0", "1"]]')
    code, out, _ = run(capsys, "gw", "classify", path)
    assert code == 0
    assert "named form: 2<1>" in out


def test_gw_classify_rank_one(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["2"]]')
    code, out, _ = run(capsys, "gw", "classify", path)
    assert code == 0
    assert "diagonal: ⟨2⟩" in out
    assert "discriminant: 2" in out


def test_gw_classify_degenerate(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["1", "1"], ["1", "1"]]')
    code, _, err = run(capsys, "gw", "classify", path)
    assert code == 4
    path2 = write(tmp_path, "g2.json", '[["0", "1"], ["2", "0"]]')
    code2, _, _ = run(capsys, "gw", "classify", path2)
    assert code2 == 2  # asymmetric input is a parse-level rejection


def test_gw_classify_factor_bound(tmp_path, capsys):
    # 1000003 * 1000033: both prime factors lie above the trial-division
    # bound, and Pollard-Brent rho splits the cofactor
    path = write(tmp_path, "g.json", '[["1000036000099"]]')
    code, out, err = run(capsys, "gw", "classify", path)
    assert (code, err) == (0, "")
    assert "diagonal: ⟨1000036000099⟩" in out
    # two primes near 10^12 are beyond rho's step cap
    n = (10**12 + 39) * (10**12 + 61)
    path = write(tmp_path, "g.json", f'[["{n}"]]')
    code, out, err = run(capsys, "gw", "classify", path)
    assert code == 5
    assert out == ""
    assert err.startswith(f"factor bound exceeded: cofactor {n}")


@pytest.mark.parametrize(
    "n",
    [3317044064679887385961981, 2**89 - 1],  # a strong pseudoprime to the bases 2..41; a prime
)
def test_gw_classify_uncertified_prime_factor(tmp_path, capsys, n):
    path = write(tmp_path, "g.json", json.dumps([[str(n), "0"], ["0", "61"]]))
    code, out, err = run(capsys, "gw", "classify", path)
    assert code == 5
    assert out == ""
    assert err.startswith(f"factor bound exceeded: cofactor {n}")


def test_gw_classify_fractions(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["1/3"]]')
    code, out, _ = run(capsys, "gw", "classify", path)
    assert code == 0
    assert "diagonal: ⟨3⟩" in out


@pytest.mark.parametrize("entry, diagonal", [('"1/3"', "⟨5⟩"), ("0.5", "⟨4⟩")])
def test_gw_classify_rational_entries_over_fp(tmp_path, capsys, entry, diagonal):
    # entries are read as over Q, then reduced mod 7: 1/3 = 5 and 1/2 = 4
    path = write(tmp_path, "g.json", f"[[{entry}]]")
    code, out, _ = run(capsys, "gw", "classify", path, "--field", "fp:7")
    assert code == 0
    assert f"diagonal: {diagonal}" in out


@pytest.mark.parametrize("field, diagonal", [("q", "⟨10⟩"), ("fp:7", "⟨5⟩")])
def test_gw_classify_float_entry_is_its_decimal(tmp_path, capsys, field, diagonal):
    # 0.1 is read as 1/10, not as its binary value 3602879701896397/2^55
    path = write(tmp_path, "g.json", "[[0.1]]")
    code, out, _ = run(capsys, "gw", "classify", path, "--field", field)
    assert code == 0
    assert f"diagonal: {diagonal}" in out


@pytest.mark.parametrize("field", ["q", "fp:7"])
@pytest.mark.parametrize("gram", ["[[true]]", "[[1, false], [false, 1]]"])
def test_gw_classify_boolean_entry_is_a_parse_error(tmp_path, capsys, field, gram):
    path = write(tmp_path, "g.json", gram)
    code, out, err = run(capsys, "gw", "classify", path, "--field", field)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize(
    "gram",
    [
        '["12", "21"]',  # rows that are strings, not arrays
        '{"1": 0}',  # an object, not an array
        '"7"',  # a bare string
        "[1]",  # a row that is a number
    ],
)
def test_gw_classify_refuses_a_gram_file_that_is_not_an_array_of_arrays(tmp_path, capsys, gram):
    path = write(tmp_path, "g.json", gram)
    code, out, err = run(capsys, "gw", "classify", path)
    assert (code, out) == (2, "")
    assert err == "parse error: a Gram matrix is an array of rows, each an array of entries\n"


def test_gw_classify_denominator_divisible_by_p(tmp_path, capsys):
    path = write(tmp_path, "g.json", '[["1/7"]]')
    code, out, err = run(capsys, "gw", "classify", path, "--field", "fp:7")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")


def test_named_form_classified_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m.json", MAP_S2)
    calls = []
    recognize = ekl.cli.recognize_units
    monkeypatch.setattr(ekl.cli, "recognize_units", lambda c: calls.append(c) or recognize(c))
    for fmt, expected in (("invariants", 0), ("diag", 0), ("named", 1), ("json", 1)):
        calls.clear()
        code, out, _ = run(capsys, "degree", path, "--format", fmt)
        assert code == 0
        assert len(calls) == expected, fmt
    assert json.loads(out)["named_form"] == "1<1> + 1<-1>"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_broken_pipe_exits_quietly(unbuffered):
    src = os.path.dirname(os.path.dirname(ekl.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ekl.cli", "weyl", "info", "--type", "A3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def untimed(text: str) -> str:
    return re.sub(r'"timing_seconds": "[0-9.]+"', "", text)


def test_repeated_main_matches_fresh_processes(tmp_path, capsys):
    """``main`` reuses one parser per process; no call may see another's state."""
    path = write(tmp_path, "m.json", MAP_S2)
    calls = [
        ["degree", path, "--format", "json"],
        ["weyl", "ap", "--type", "A3", "--keep", "1"],
        ["degree", path, "--format", "bogus"],
        ["weyl", "ap", "--type", "E6", "--remove", "1"],
        ["weyl", "ap", "--type", "A3"],
        ["degree", path, "--format", "json"],
        ["degree", path],
    ]
    src = os.path.dirname(os.path.dirname(ekl.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "ekl.cli", *argv],
            capture_output=True,
            encoding="utf-8",
            env=env,
            timeout=60,
        )
        assert code == fresh.returncode, argv
        assert untimed(captured.out) == untimed(fresh.stdout), argv
        assert captured.err == fresh.stderr, argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 2, 0, 0]
