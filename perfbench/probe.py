"""Set-up probe: a fresh interpreter imports a workload's entry points
and runs its first op, one campaign call, then exits.

    python perfbench/probe.py MODULES THEOREM GEOMETRY TRIALS SEED

MODULES is a comma-separated list.  Only the standard library and
ccplane are imported, so the time is the program's own set-up.  The
exit code is 0 when the campaign passed its gate.
"""

import importlib
import sys


def main(argv: list[str]) -> int:
    modules, theorem, geometry, trials, seed = argv
    for name in modules.split(","):
        importlib.import_module(name)
    from ccplane.kernel import Geometry
    from ccplane.verify import run_verification

    report = run_verification(theorem, Geometry(geometry), int(trials), int(seed))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
