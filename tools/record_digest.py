"""Print one digest of the reports of the benchmark's seed-7 configurations.

    python3 tools/record_digest.py

For each workload of perfbench (suite40, grid160, exponents40) it runs every
seed-7 configuration once, without report files, and prints the sum of the
stopping indices n* and one SHA-256 over the repr of every report and
record field except `wall_time`. A record's diagnostics count as its
fields, and its fields are sorted by name, so a field that moves between
the record and its diagnostics leaves the digest alone. repr round-trips a
float exactly and keeps the sign of zero, so two revisions with equal
digests produced equal reports. It exits 1, with the reason on stderr,
when a run fails. The current reports give n* 181 / 34 / 286 and digests
that start 83d142bd, fff53e03 and 2b202a4f.
"""

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# One BLAS thread, as in the benchmark; set before numpy is first imported.
ONE_BLAS_THREAD = {'OMP_NUM_THREADS': '1', 'OPENBLAS_NUM_THREADS': '1',
                   'MKL_NUM_THREADS': '1'}


def report_fields(report):
    """The report as a dict without wall_time, each record as the sorted
    items of its fields and diagnostics, without wall_time."""
    fields = dataclasses.asdict(report)
    del fields['wall_time']
    records = []
    for record in fields['records']:
        record.update(record.pop('diagnostics', {}))
        del record['wall_time']
        records.append(sorted(record.items()))
    fields['records'] = records
    return fields


def report_digest(reports):
    """SHA-256 (hex) over the repr of the fields of each report, in order."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr(report_fields(report)).encode())
    return digest.hexdigest()


def main():
    os.environ.update(ONE_BLAS_THREAD)
    sys.path[:0] = [str(ROOT / 'src'), str(ROOT)]
    from perfbench.workloads import WHY, configs
    from resesop import ExperimentConfig, run_experiment

    failed = False
    for workload in WHY:
        reports = []
        for label, fields, _ in configs(workload, SEED):
            report = run_experiment(ExperimentConfig(**fields))
            if report.stop_reason == 'failed':
                print('{}: {} failed: {}'.format(workload, label, report.detail),
                      file=sys.stderr)
                failed = True
            reports.append(report)
        print('{} n*={} sha256={}'.format(workload, sum(r.n_star for r in reports),
                                          report_digest(reports)))
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
