"""Workloads of the benchmark and the output gate every run passes through.

A workload is a list of experiment configurations; one pass runs each of
them once with ``run_experiment``, so every pass of a run does the same work.
Noisy configurations run DRAWS times per pass, draw j with the noise seed
``seed + NOISE_STRIDE * j``: draw 0 of seed 7 is the acceptance run, and
the medians rest on more than one noise field.
"""

import logging
import os

NOISE_STRIDE = 1_000_003
DRAWS = 4
DELTA = 5e-4
# Settings every configuration shares with the acceptance runs.
COMMON = {'s': 5.0, 'cone_constant': 0.01, 'tau_factor': 1.1}

ACCEPTED_STOPS = ('residual_tolerance', 'discrepancy')
# Acceptance band on the final relative error (criteria 6 and 7).
ERROR_BAND = 0.15

WHY = {
    'suite40': 'the acceptance runs (A/B x exact/noisy data, n_recon 40) with '
               'report files; fixed per-call costs and report I/O dominate',
    'grid160': 'A and B on exact data at n_recon 160; the sparse LU '
               'factorization and solves dominate',
    'exponents40': 'A/B x r in {1.2, 3.0} on noisy data at n_recon 40; the '
                   'duality maps and projections take their largest share',
}


LOGGING_SETTING = 'resesop logger: NullHandler, propagate=False'


def silence_library_logging():
    """The same logging in every run: records of the resesop logger are
    created as usual and then dropped."""
    logger = logging.getLogger('resesop')
    logger.addHandler(logging.NullHandler())
    logger.propagate = False


def configs(workload, seed):
    """(label, ExperimentConfig fields, writes report) for one pass."""
    if workload == 'suite40':
        cases = [(m, d, 1.5) for d in (0.0, DELTA) for m in 'AB']
        grid = {'n_recon': 40, 'n_data': 50}
    elif workload == 'grid160':
        cases = [(m, 0.0, 1.5) for m in 'AB']
        grid = {'n_recon': 160, 'n_data': 200}
    elif workload == 'exponents40':
        cases = [(m, DELTA, r) for r in (1.2, 3.0) for m in 'AB']
        grid = {'n_recon': 40, 'n_data': 50}
    else:
        raise ValueError('unknown workload {!r}; choose one of {}'.format(
            workload, ', '.join(WHY)))
    out = []
    for method, delta, r in cases:
        for draw in range(DRAWS if delta else 1):
            noise_seed = seed + NOISE_STRIDE * draw
            label = '{} r={:g} n{} {}'.format(
                method, r, grid['n_recon'],
                'noise seed {}'.format(noise_seed) if delta else 'exact')
            fields = dict(COMMON, method=method, delta=delta, r=r, seed=noise_seed,
                          **grid)
            out.append((label, fields, workload == 'suite40'))
    return out


def report_paths(directory, index):
    """JSON and CSV paths of the report written by operation `index`."""
    stem = os.path.join(directory, 'report{}'.format(index))
    return stem + '.json', stem + '.csv'


def gate(report, report_class, paths=None):
    """Reasons a run fails the output gate; an empty list when it passes.

    A run fails when it stops for another reason than the residual
    tolerance or the discrepancy principle, when its final relative error
    is outside the acceptance band, or when a report it wrote does not read
    back to the same report.
    """
    reasons = []
    if report.stop_reason not in ACCEPTED_STOPS:
        reasons.append('stop reason {!r}'.format(report.stop_reason))
    error = report.final_rel_error
    if error is None or not error <= ERROR_BAND:
        reasons.append('final relative error {} outside the {:.0%} band'.format(
            error, ERROR_BAND))
    if paths is not None:
        json_path, csv_path = paths
        try:
            with open(json_path) as handle:
                if report_class.from_json(handle.read()) != report:
                    reasons.append('JSON report does not round-trip')
            with open(csv_path) as handle:
                rows = sum(1 for _ in handle)
            if rows != len(report.records) + 1:
                reasons.append('CSV report has {} rows for {} records'.format(
                    rows, len(report.records)))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            reasons.append('report unreadable: {}'.format(exc))
    return reasons
