"""Set-up probe: from process start to the first entry into the solver.

``python3 perfbench/probe.py WORKLOAD SEED`` imports resesop and starts the
workload's first run_experiment call. When the pipeline calls the solver,
the probe prints the CLOCK_MONOTONIC time, which is shared by all
processes, and stops the call. The parent that started the probe subtracts
its own reading taken just before the start.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / 'src'), str(ROOT)]

from perfbench.workloads import configs, silence_library_logging  # noqa: E402


class SolverEntered(Exception):
    """Raised in place of the solver; run_experiment catches only SolverFailure."""


def main(workload, seed):
    silence_library_logging()
    import resesop
    from resesop import experiment_cli

    def entered(*args, **kwargs):
        raise SolverEntered(time.clock_gettime(time.CLOCK_MONOTONIC))

    experiment_cli.run = entered
    _, fields, _ = configs(workload, seed)[0]
    try:
        resesop.run_experiment(resesop.ExperimentConfig(**fields))
    except SolverEntered as stop:
        print(repr(stop.args[0]))
        return 0
    print('the solver was never entered', file=sys.stderr)
    return 1


if __name__ == '__main__':
    raise SystemExit(main(sys.argv[1], int(sys.argv[2])))
