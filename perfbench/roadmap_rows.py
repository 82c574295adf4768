"""One traced run of each ROADMAP baseline row, for comparison with the
hand-measured table there.  These rows are too slow for the benchmark's
25-second runs (A(2,2,2) alone takes about 25 s), so they are measured
once, not in the benchmark's closed loop.

    python3 perfbench/roadmap_rows.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import STAGE_NAMES, Tracer  # noqa: E402
from worker import import_library, run_pass  # noqa: E402
from workloads import Op, quotient_check, weyl_check  # noqa: E402

ROWS = (
    Op("Sn5", ("quotient", "--type", "Sn", "--n", "5"), quotient_check("60<1> + 60<-1>")),
    Op("Dfull4", ("quotient", "--type", "D", "--rank", "4"), quotient_check("96<1> + 96<-1>")),
    Op("A222", ("quotient", "--type", "A", "--blocks", "2,2,2"), quotient_check("48<1> + 42<-1>")),
    Op("A44", ("quotient", "--type", "A", "--blocks", "4,4"), quotient_check("38<1> + 32<-1>")),
    Op(
        "Dodd5",
        ("quotient", "--type", "D", "--rank", "11", "--parabolic", "D10"),
        quotient_check("12<1> + 10<-1>"),
    ),
    Op(
        "A8keep1",
        ("weyl", "ap", "--type", "A8", "--keep", "1", "--method", "enumerate"),
        weyl_check(0, 181440),
    ),
)


def main() -> int:
    cli = import_library()
    status = 0
    for op in ROWS:
        tracer = Tracer()
        tracer.install()
        tracer.start_pass()
        try:
            wall, _, outputs = run_pass(cli, [op], tracer)
        finally:
            tracer.remove()
        reason = op.check(*outputs[0])
        status |= reason is not None
        stages = tracer.pass_metrics(0)
        top = sorted((stages[f"{name}_s"], f"{name}_s") for name in STAGE_NAMES)[-3:]
        layers = ", ".join(f"{name} {value:.2f}" for value, name in reversed(top))
        verdict = "" if reason is None else f" WRONG: {reason}"
        print(f"{op.name}: {wall:.2f} s traced ({layers}){verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
