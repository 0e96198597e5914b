"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload suite40 --seed 7 --seconds 36 --trace 0

A run is one process with one client: run_experiment calls back to back,
one pass over the workload's configurations after another, until the time
is up. Every call passes the output gate in workloads.gate. With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate, and the JSON
holds the per-layer metrics. See README.md for the metrics.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
BLAS_THREADS = {'OMP_NUM_THREADS': '1', 'OPENBLAS_NUM_THREADS': '1',
                'MKL_NUM_THREADS': '1'}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ACCEPTED_STOPS, LOGGING_SETTING, WHY, configs, gate, report_paths,
    silence_library_logging)

# Transient files of a run: report files and the written trace.
SCRATCH = ROOT / '.perfbench'
SETUP_PROBES = 5
# (factorizations, solves) of one exact-data r=1.5 run at the seed revision,
# by method and n_recon. Factorizations are n* + 2 on both grids; the c_F
# power iteration needs fewer solves on the finer grid.
SEED_COUNTS = {('A', 40): (27, 103), ('B', 40): (11, 60),
               ('A', 160): (27, 93), ('B', 160): (11, 50)}

END_TO_END_UNITS = {
    'pass_s': 's', 'iter_ms': 'ms', 'setup_s': 's', 'peak_rss_mb': 'MB',
    'outer_iters': 'count', 'rel_error_max': 'ratio', 'success_ratio': 'ratio',
}
PER_LAYER_UNITS = {
    'elliptic_operator.factorize_s': 's',
    'elliptic_operator.factorizations': 'count',
    'elliptic_operator.assemble_s': 's',
    'elliptic_operator.assemble_calls': 'count',
    'elliptic_operator.solve_s': 's',
    'elliptic_operator.solves': 'count',
    'elliptic_operator.solves_per_factorization': 'ratio',
    'elliptic_operator.linearize_s': 's',
    'elliptic_operator.adjoint_s': 's',
    'elliptic_operator.derivative_s': 's',
    'elliptic_operator.norm_estimate_s': 's',
    'bregman_geometry.project_hyperplane_s': 's',
    'bregman_geometry.project_hyperplane_calls': 'count',
    'bregman_geometry.project_intersection_s': 's',
    'bregman_geometry.project_intersection_calls': 'count',
    'bregman_geometry.projections': 'count',
    'bregman_geometry.inverse_duality_evals': 'count',
    'bregman_geometry.evals_per_projection': 'ratio',
    'lp_spaces.duality_map_s': 's',
    'lp_spaces.inverse_duality_map_s': 's',
    'lp_spaces.calls': 'count',
    'sesop_solver.run_s': 's',
    'sesop_solver.self_s': 's',
    'sesop_solver.outer_iters': 'count',
    'sesop_solver.two_plane_steps': 'count',
    'sesop_solver.cone_violations': 'count',
    'sesop_solver.diagnostics_s': 's',
    'experiment_cli.prepare_s': 's',
    'experiment_cli.report_write_s': 's',
    'experiment_cli.report_bytes': 'B',
    'trace.overhead_s': 's',
    'trace.coverage': 'ratio',
    'trace.self_check': 'bool',
}


@dataclass
class Op:
    """One run_experiment call and what the gate made of it."""

    key: tuple
    label: str
    report: object
    seconds: float
    reasons: list
    report_bytes: int


def run_pass(resesop, workload, seed, index, directory, tracer=None):
    """Run each configuration of the workload once; returns the Ops."""
    ops = []
    for label, fields, writes in configs(workload, seed):
        paths = report_paths(directory, len(ops)) if writes else None
        cfg = resesop.ExperimentConfig(output_path=paths[0] if paths else None,
                                       **fields)
        key = (index, label)
        if tracer is not None:
            tracer.op = key
            span = tracer.begin(tracing.ROOT)
        tic = time.perf_counter()
        report = resesop.run_experiment(cfg)
        seconds = time.perf_counter() - tic
        if tracer is not None:
            tracer.end(span)
        reasons = gate(report, resesop.ExperimentReport, paths)
        size = sum(os.path.getsize(p) for p in paths) if paths else 0
        ops.append(Op(key, label, report, seconds, reasons, size))
    return ops


def measure_setup(workload, seed):
    """Seconds from starting a probe process to its first solver entry."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = subprocess.run(
        [sys.executable, str(ROOT / 'perfbench' / 'probe.py'), workload, str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=False)
    if probe.returncode != 0:
        raise RuntimeError('set-up probe failed with exit code {}: {}'.format(
            probe.returncode, probe.stderr.strip()[-2000:]))
    return float(probe.stdout.strip().splitlines()[-1]) - start


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples above
    it, or None when there are fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def n_star_sum(ops):
    return sum(op.report.n_star for op in ops)


def end_to_end(passes, setup_times):
    seconds = [sum(op.seconds for op in ops) for ops in passes]
    attempted = sum(len(ops) for ops in passes)
    failed = sum(1 for ops in passes for op in ops if op.reasons)
    return {
        'pass_s': statistics.median(seconds),
        'iter_ms': statistics.median(
            1000.0 * s / max(1, n_star_sum(ops)) for s, ops in zip(seconds, passes)),
        'setup_s': statistics.median(setup_times),
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        'outer_iters': statistics.median(n_star_sum(ops) for ops in passes),
        'rel_error_max': statistics.median(
            max(float('inf') if op.report.final_rel_error is None
                else op.report.final_rel_error for op in ops) for ops in passes),
        'success_ratio': (attempted - failed) / attempted,
    }


def per_layer(tracer, traced, untraced, instrumentation):
    """Per-layer metrics: the median over traced passes of each pass value."""
    own = tracing.self_times(tracer.spans)
    rows = []
    for lo, hi, ops in traced:
        row = tracing.pass_metrics(tracer.spans, own, lo, hi)
        records = [rec for op in ops for rec in op.report.records]
        row['sesop_solver.outer_iters'] = n_star_sum(ops)
        row['sesop_solver.two_plane_steps'] = sum(
            rec.step_class == 'two_plane_correction' for rec in records)
        row['sesop_solver.cone_violations'] = sum(
            rec.truth_inside is False for rec in records)
        row['experiment_cli.report_bytes'] = sum(op.report_bytes for op in ops)
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics['trace.overhead_s'] = (
        statistics.median(sum(op.seconds for op in ops) for _, _, ops in traced)
        - statistics.median(sum(op.seconds for op in ops) for ops in untraced))
    checks = self_check(tracer, traced)
    metrics['trace.self_check'] = float(
        not instrumentation.missing and all(ok for *_, ok in checks))
    return metrics, checks, own


def self_check(tracer, traced):
    """Compare the traced counts of the exact-data r=1.5 runs with
    SEED_COUNTS.

    Returns (label, factorizations, solves, expected, ok) per checked run.
    """
    names = ('elliptic_operator.factorize', 'elliptic_operator.solve')
    counts = tracing.op_counts(tracer.spans, names)
    checks = []
    for _, _, ops in traced:
        for op in ops:
            cfg = op.report.config
            expected = SEED_COUNTS.get((cfg.method, cfg.n_recon))
            if cfg.delta or cfg.r != 1.5 or expected is None:
                continue
            found = counts.get(op.key, {})
            got = (found.get(names[0], 0), found.get(names[1], 0))
            checks.append((op.label, got[0], got[1], expected, got == expected))
    return checks


def print_self_check(checks, missing):
    outcomes = {}
    for label, facts, solves, expected, _ in checks:
        outcomes.setdefault((label, expected), set()).add((facts, solves))
    for (label, expected), seen in outcomes.items():
        print('self-check {}: (factorizations, solves) {} in the traced passes, '
              'seed {}: {}'.format(label, sorted(seen), expected,
                                   'PASS' if seen == {expected} else 'FAIL'))
    if not checks:
        print('self-check: this workload has no run with seed counts')
    for name in missing:
        print('self-check: wrapped name {} not found: FAIL'.format(name))


def environment(args):
    import numpy
    import scipy
    return {
        'nproc': os.cpu_count(),
        'affinity_cpus': len(os.sched_getaffinity(0)),
        'python': platform.python_version(),
        'numpy': numpy.__version__,
        'scipy': scipy.__version__,
        'blas_threads': BLAS_THREADS,
        'workload': args.workload,
        'seed': args.seed,
        'seconds': args.seconds,
        'trace': args.trace,
        'logging': LOGGING_SETTING,
    }


def determinism_errors(passes):
    """Every pass runs the same inputs, so n* and the final error of each
    configuration must repeat exactly."""
    seen = {}
    errors = []
    for ops in passes:
        for op in ops:
            outcome = (op.report.n_star, op.report.final_rel_error)
            if seen.setdefault(op.label, outcome) != outcome:
                errors.append('{}: {} after {}'.format(op.label, outcome, seen[op.label]))
    return errors


def print_configurations(passes):
    """n* and final error per configuration; noisy ones list their range."""
    by_label = {}
    for ops in passes:
        for op in ops:
            by_label.setdefault(op.label, []).append(op)
    print('{:<32s} {:>5s} {:>9s} {:>10s} {:>10s}  {}'.format(
        'configuration', 'runs', 'n*', 'error', 'median s', 'gate'))
    for label, ops in by_label.items():
        stars = [op.report.n_star for op in ops]
        errs = [op.report.final_rel_error or float('nan') for op in ops]
        failed = [op for op in ops if op.reasons]
        print('{:<32s} {:>5d} {:>9s} {:>10s} {:>10.4f}  {}'.format(
            label, len(ops),
            '{}'.format(stars[0]) if min(stars) == max(stars)
            else '{}-{}'.format(min(stars), max(stars)),
            '{:.2%}'.format(errs[0]) if min(errs) == max(errs)
            else '{:.2%}-{:.2%}'.format(min(errs), max(errs)),
            statistics.median(op.seconds for op in ops),
            '{} failed: {}'.format(len(failed), '; '.join(failed[0].reasons))
            if failed else 'ok'))


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print('{:<46s} {:>14.6g} {}'.format(name, value, units[name]))


def print_layers(tracer, own, traced):
    """Self time per layer, per traced pass, with its share of the traced time."""
    passes = len(traced)
    layers = tracing.layer_self_times(tracer.spans, own)
    total = sum(layers.values())
    print('{:<20s} {:>14s} {:>7s}'.format('layer', 'self s / pass', 'share'))
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print('{:<20s} {:>14.6f} {:>6.1%}'.format(layer, seconds / passes,
                                                  seconds / total))


def write_trace(tracer, env):
    path = SCRATCH / 'trace-{}-seed{}.json'.format(env['workload'], env['seed'])
    with open(path, 'w') as handle:
        json.dump({'environment': env,
                   'columns': ['name', 'start', 'end', 'parent', 'op'],
                   'spans': [span.as_row() for span in tracer.spans]}, handle)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(WHY))
    parser.add_argument('--seed', type=int, required=True,
                        help='noise seed of the first pass (7 reproduces the '
                             'acceptance runs)')
    parser.add_argument('--seconds', type=float, required=True,
                        help='measure passes until this much time has gone')
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error('--seconds must be positive')
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / 'resesop' / '__init__.py').is_file():
        print('perfbench: no resesop sources under {}'.format(SRC), file=sys.stderr)
        return 2
    silence_library_logging()
    import resesop
    if Path(resesop.__file__).resolve().parent != SRC / 'resesop':
        print('perfbench: resesop imported from {}, not from {}'.format(
            resesop.__file__, SRC), file=sys.stderr)
        return 2
    env = environment(args)
    setup_times = [] if args.trace else [
        measure_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    # Warm-up: one small run loads the lazily imported code before timing.
    resesop.run_experiment(resesop.ExperimentConfig(method='B'))

    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    passes = []
    traced = []
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(SCRATCH)) as directory:
        deadline = time.perf_counter() + args.seconds
        while len(passes) < 1 + args.trace or time.perf_counter() < deadline:
            index = len(passes)
            if args.trace and index % 2:
                lo = len(tracer.spans)
                instrumentation.install()
                try:
                    ops = run_pass(resesop, args.workload, args.seed, index,
                                   directory, tracer)
                finally:
                    instrumentation.remove()
                traced.append((lo, len(tracer.spans), ops))
            else:
                ops = run_pass(resesop, args.workload, args.seed, index, directory)
            passes.append(ops)
    untraced = [ops for k, ops in enumerate(passes) if not (args.trace and k % 2)]

    attempted = sum(len(ops) for ops in passes)
    failed = sum(1 for ops in passes for op in ops if op.reasons)
    nondeterministic = determinism_errors(passes)
    # A run that stops with an accepted reason but fails the gate returned a
    # wrong result; one that stops for another reason failed openly.
    wrong = [op.label for ops in passes for op in ops
             if op.reasons and op.report.stop_reason in ACCEPTED_STOPS]
    print('workload {} seed {}: {} passes ({} traced), {} runs, {} failed the gate'.format(
        args.workload, args.seed, len(passes), len(traced), attempted, failed))
    print_configurations(passes)
    for line in nondeterministic:
        print('NONDETERMINISTIC {}'.format(line))
    for label in wrong:
        print('WRONG RESULT {}'.format(label))
    if args.trace:
        metrics, checks, own = per_layer(tracer, traced, untraced, instrumentation)
        print_layers(tracer, own, traced)
        print_metrics(metrics, PER_LAYER_UNITS)
        print_self_check(checks, instrumentation.missing)
        if not metrics['trace.self_check']:
            print('perfbench: SELF-CHECK FAILED: the traced counts differ from the seed '
                  'counts or a wrapped name is missing; per-layer numbers may be '
                  'incomplete', file=sys.stderr)
        print('trace written to {}'.format(write_trace(tracer, env)))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(passes, setup_times)
        seconds = [sum(op.seconds for op in ops) for ops in passes]
        high = tail(seconds)
        print_metrics(metrics, END_TO_END_UNITS)
        print('pass_s over {} passes: median {:.4f} s, {}'.format(
            len(seconds), statistics.median(seconds),
            'p{:.1f} {:.4f} s'.format(*high) if high
            else 'no tail percentile below 11 passes'))
        units = END_TO_END_UNITS
    print('environment ' + json.dumps(env, sort_keys=True))
    print(json.dumps({
        'correct': not nondeterministic and not wrong,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': value, 'unit': units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
