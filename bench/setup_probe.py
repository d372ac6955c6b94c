"""Set-up probe: import cantorloc.cli and build a workload's problems.

    python3 bench/setup_probe.py PROBLEMS_JSON

PROBLEMS_JSON is a list of [base, [alphabet], depth, rho].  Prints two
numbers: the seconds from the start of the import to the last problem
built, measured in this fresh interpreter (its own start is left out, since
it does not depend on the program), and the median time of the speed
reference (speed.py), timed on this vCPU just before the import.
"""

import json
import statistics
import sys
import time

from speed import reference_task

REFERENCE_RUNS = 15


def main() -> int:
    problems = json.loads(sys.argv[1])
    reference = statistics.median(reference_task()
                                  for _ in range(REFERENCE_RUNS))
    t0 = time.perf_counter()
    import cantorloc.cli  # noqa: F401  (the import cost is part of set-up)
    from cantorloc.cantor import CantorSpec
    from cantorloc.operator import localization_problem

    for base, alphabet, depth, rho in problems:
        localization_problem(CantorSpec(base, tuple(alphabet)), depth, rho)
    print(repr(time.perf_counter() - t0), repr(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
