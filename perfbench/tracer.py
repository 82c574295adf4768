"""Per-layer tracing installed from outside the library.

The tracer replaces public module attributes of ``ekl`` with timing
wrappers, at the names that callers look up (``from .x import f`` binds a
separate name in the caller's module, so each binding is wrapped where it
is used).  Nothing under ``src/`` changes.

Two kinds of wrapped calls:

* Stages partition the time of an op.  A stage's self time is its span
  minus the spans of the stages it called; the op's root span (the whole
  ``ekl.cli.main`` call) keeps whatever no stage claimed, reported as
  ``cli.self_s``.  Stage self times add up to the op times.
* Helpers (normal forms, determinants, factoring, Hilbert symbols, the
  parabolic membership test) are counted with their inclusive time.  They
  run inside stages and are not subtracted from them, so a stage such as
  the origin check keeps the normal forms it computes.

Stage spans (name, start, end, parent index, op id) and per-pass counters
are kept in memory and written out as JSON at the end.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, stage name).  A stage name may cover several bindings.
STAGES = (
    ("ekl.cli", "build_typeA_partial", "quotmap.build"),
    ("ekl.cli", "build_Sn_full", "quotmap.build"),
    ("ekl.cli", "build_typeBC_full", "quotmap.build"),
    ("ekl.cli", "build_D_full", "quotmap.build"),
    ("ekl.cli", "build_D_odd_partial", "quotmap.build"),
    ("ekl.degree", "parse_poly", "poly.parse"),
    # ekl_degree's self time, outside the stages below, is the Gram matrix
    ("ekl.cli", "ekl_degree", "degree.gram"),
    ("ekl.degree", "groebner", "localg.groebner"),
    ("ekl.degree", "quotient_presentation", "localg.staircase"),
    ("ekl.degree", "origin_supported", "localg.origin_check"),
    ("ekl.degree", "socle_element", "degree.socle"),
    ("ekl.degree", "jacobian_element", "degree.jacobian"),
    # classify's self time, outside diagonalize, is the invariant computation
    ("ekl.degree", "classify", "gw.invariants"),
    ("ekl.gw", "diagonalize", "gw.diagonalize"),
    ("ekl.cli", "render_class", "gw.render"),
    ("ekl.cli", "recognize_units", "gw.render"),
    ("ekl.cli", "units_class", "gw.render"),
    ("ekl.cli", "gw_equal", "gw.render"),
    ("ekl.cli", "build_root_system", "weyl.root_system"),
    # compute_aP's self time, outside min_coset_reps, is the self-dual test loop
    ("ekl.cli", "compute_aP", "weyl.self_dual"),
    ("ekl.weyl", "min_coset_reps", "weyl.min_coset_reps"),
)

HELPERS = (
    ("ekl.degree", "normal_form", "localg.normal_form"),
    ("ekl.localg", "normal_form", "localg.normal_form"),
    ("ekl.degree", "poly_det", "poly.det"),
    ("ekl.gw", "factorize", "scalar.factorize"),
    ("ekl.scalar", "factorize", "scalar.factorize"),
    ("ekl.gw", "hilbert_symbol", "gw.hilbert_symbol"),
    ("ekl.weyl", "in_parabolic", "weyl.in_parabolic"),
)

ROOT = "cli.self"
STAGE_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name in STAGES]))
HELPER_NAMES = tuple(dict.fromkeys(name for _, _, name in HELPERS))


class Tracer:
    """Span and counter recorder; ``install`` patches the library, ``remove``
    restores it.  Counters are kept per pass (``start_pass``)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.passes: list[dict] = []
        self.missing: list[str] = []
        self.op_names: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time]
        self._patched: list[tuple] = []
        self._op_id = -1
        self._factorized: set[int] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in STAGES:
            self._patch(module_name, attr, self._stage_wrapper(name, attr))
        for module_name, attr, name in HELPERS:
            self._patch(module_name, attr, self._helper_wrapper(name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            # a later version may remove or rename the name: report, do not fail
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    # -- recording ---------------------------------------------------------

    def start_pass(self) -> None:
        self._factorized = set()
        self.passes.append({"self_s": dict.fromkeys(STAGE_NAMES, 0.0), "counters": {}})

    def _count(self, key: str, amount: float = 1) -> None:
        counters = self.passes[-1]["counters"]
        counters[key] = counters.get(key, 0) + amount

    def _open(self, name: str) -> list:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._op_id])
        frame = [index, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        index, start, child = frame
        span = self.spans[index]
        span[1], span[2] = start, end
        duration = end - start
        self.passes[-1]["self_s"][span[0]] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def op(self, name: str, call):
        """Run ``call()`` as one op under the root span."""
        self.op_names.append(name)
        self._op_id = len(self.op_names) - 1
        frame = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(frame)

    def _stage_wrapper(self, name: str, attr: str):
        def make(original):
            def wrapper(*args, **kwargs):
                frame = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(frame)
                if attr == "quotient_presentation":
                    self._count("degree.dimension_sum", result.dimension)
                elif attr == "min_coset_reps":
                    self._count("weyl.cosets", len(result))
                return result

            return wrapper

        return make

    def _helper_wrapper(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._count(name + "_s", perf_counter() - start)
                    self._count(name + "_calls")
                    if name == "scalar.factorize" and args:
                        self._factorized.add(args[0])
                        self.passes[-1]["counters"]["scalar.factorize_distinct"] = len(
                            self._factorized
                        )

            return wrapper

        return make

    # -- reporting ---------------------------------------------------------

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        record = self.passes[index]
        counters = record["counters"]
        out = {f"{name}_s": value for name, value in record["self_s"].items()}
        for name in HELPER_NAMES:
            out[f"{name}_s"] = counters.get(f"{name}_s", 0.0)
            out[f"{name}_calls"] = counters.get(f"{name}_calls", 0)
        calls = counters.get("scalar.factorize_calls", 0)
        distinct = counters.get("scalar.factorize_distinct", 0)
        out["scalar.factorize_distinct_ratio"] = distinct / calls if calls else 0.0
        out["degree.dimension_sum"] = counters.get("degree.dimension_sum", 0)
        cosets = counters.get("weyl.cosets", 0)
        out["weyl.cosets"] = cosets
        reps_s = record["self_s"]["weyl.min_coset_reps"]
        out["weyl.coset_us"] = 1e6 * reps_s / cosets if cosets else 0.0
        return out

    def write(self, path: str) -> None:
        data = {
            "missing": self.missing,
            "ops": self.op_names,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "passes": self.passes,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
