"""Print one digest of the reports of the benchmark's seed-7 configurations.

    python3 tools/record_digest.py

For each workload of perfbench (suite40, grid160, exponents40) it runs every
seed-7 configuration once, without report files, and prints the sum of the
stopping indices n* and one SHA-256 over the repr of every report and
record field except `wall_time`. repr round-trips a float exactly and keeps
the sign of zero, so two revisions with equal digests produced equal
reports. It exits 1, with the reason on stderr, when a run fails.
"""

import os

# One BLAS thread, fixed before numpy is first imported, as in the benchmark.
os.environ.update({'OMP_NUM_THREADS': '1', 'OPENBLAS_NUM_THREADS': '1',
                   'MKL_NUM_THREADS': '1'})

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / 'src'), str(ROOT)]

from perfbench.workloads import WHY, configs  # noqa: E402
from resesop import ExperimentConfig, run_experiment  # noqa: E402

SEED = 7


def report_fields(report):
    """The report as a dict, without wall_time at either level."""
    fields = dataclasses.asdict(report)
    del fields['wall_time']
    for record in fields['records']:
        del record['wall_time']
    return fields


def main():
    failed = False
    for workload in WHY:
        digest = hashlib.sha256()
        n_star_sum = 0
        for label, fields, _ in configs(workload, SEED):
            report = run_experiment(ExperimentConfig(**fields))
            if report.stop_reason == 'failed':
                print('{}: {} failed: {}'.format(workload, label, report.detail),
                      file=sys.stderr)
                failed = True
            n_star_sum += report.n_star
            digest.update(repr(report_fields(report)).encode())
        print('{} n*={} sha256={}'.format(workload, n_star_sum, digest.hexdigest()))
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
