"""Benchmark harness for the elliptic parameter-identification problem.

The benchmark reconstructs the reaction coefficient c of -Lap u + c u = f on
the unit square from a closed-form pair (u, c): data are synthesized on a
fine nodal grid, optionally perturbed by calibrated noise, resampled onto a
coarser reconstruction grid, and fed to the single- or two-direction solver.
Because the source term f comes from the continuous Laplacian and the data
grid differs from the reconstruction grid, the discrete problem carries
genuine discretization error instead of an inverse crime.

The module doubles as the command line entry point with subcommands

* ``run``   execute a full experiment and write a JSON report plus a CSV of
  the per-iteration series,
* ``check`` run a quick invariant battery for a configuration.

Reports serialize losslessly: parsing a written report reproduces it.
"""

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bregman_geometry import StripeSide, classify
from .elliptic_operator import BvpData, EllipticOperator
from .lp_spaces import (
    GridFunction,
    SpaceSpec,
    bregman_distance,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    weighted_norm,
)
from .sesop_solver import (
    IterationRecord,
    SolverConfig,
    SolverFailure,
    StopReason,
    build_stripe,
    run,
)

__all__ = [
    'ExperimentConfig',
    'ExperimentReport',
    'TruthData',
    'synth_truth',
    'add_noise',
    'restrict',
    'run_experiment',
    'read_config_file',
    'main',
]

logger = logging.getLogger(__name__)

CSV_HEADER = ('n', 'residual', 'rel_error', 'step_class')
# Record keys of reports older than `step_distance`; from_json drops them.
RETIRED_RECORD_KEYS = ('decrease_surrogate', 'gamma')


@dataclass(frozen=True)
class TruthData:
    """Closed-form benchmark fields evaluated on one nodal grid."""

    u: GridFunction
    c: GridFunction
    c0: GridFunction
    f: GridFunction
    g: GridFunction


def synth_truth(n):
    """Closed-form instance on the (n+2) x (n+2) nodal grid.

    The exact state is u = 16x(x-1)y(1-y) + 1 with reaction coefficient
    c = 1.5 sin(2 pi x) sin(3 pi y) + 3((x-1/2)^2 + (y-1/2)^2) + 2; the
    source f = -Lap u + c u uses the continuous Laplacian
    Lap u = 32(x(1-x) + y(1-y)), and the boundary values g = u on the
    boundary are identically 1 because the quartic factor vanishes there.
    The starting guess c0 drops the oscillatory part of c and adds a
    low bump, so it agrees with c on the boundary.

    Parameters
    ----------
    n : int
        Interior grid size, n >= 2.

    Returns
    -------
    TruthData
    """
    if n < 2:
        raise ValueError('grid size must be >= 2')
    coords = np.linspace(0.0, 1.0, n + 2)
    x, y = np.meshgrid(coords, coords, indexing='ij')
    quartic = 16.0 * x * (x - 1.0) * y * (1.0 - y)
    u = quartic + 1.0
    c = (1.5 * np.sin(2.0 * np.pi * x) * np.sin(3.0 * np.pi * y)
         + 3.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2) + 2.0)
    c0 = 3.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2) + 2.0 + 0.5 * quartic
    laplacian = 32.0 * (x * (1.0 - x) + y * (1.0 - y))
    f = -laplacian + c * u
    g = np.ones_like(u)
    return TruthData(u=GridFunction(u), c=GridFunction(c), c0=GridFunction(c0),
                     f=GridFunction(f), g=GridFunction(g))


def add_noise(u, delta, exponent, seed):
    """Perturb u so that the data-space norm of the perturbation is delta.

    A uniform [-1, 1] field v from a seeded 64-bit PCG generator is scaled
    to ||u_noisy - u||_{s,h} = delta; the calibration is exact to rounding.
    delta = 0 returns u unchanged. The level must be finite and the seed
    must be >= 0.
    """
    if not math.isfinite(delta):
        raise ValueError('noise level must be finite, got {}'.format(delta))
    if delta < 0:
        raise ValueError('noise level must be >= 0')
    if seed < 0:
        raise ValueError('seed must be >= 0')
    if delta == 0:
        return u
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=u.values.shape)
    while not np.any(values):  # pragma: no cover - probability zero
        values = rng.uniform(-1.0, 1.0, size=u.values.shape)
    bump = GridFunction(values)
    return u + (delta / weighted_norm(bump, SpaceSpec(exponent, 2.0))) * bump


def _interpolation_rows(n_from, n_to):
    positions = np.arange(n_to + 2) * (n_from + 1) / (n_to + 1)
    rows = np.zeros((n_to + 2, n_from + 2))
    base = np.clip(np.floor(positions).astype(int), 1, n_from - 1)
    t = positions - base
    weights = (-t * (t - 1.0) * (t - 2.0) / 6.0,
               (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
               -(t + 1.0) * t * (t - 2.0) / 2.0,
               (t + 1.0) * t * (t - 1.0) / 6.0)
    for offset, weight in zip((-1, 0, 1, 2), weights):
        rows[np.arange(n_to + 2), base + offset] = weight
    return rows


def restrict(data, n_to):
    """Resample a grid function onto a coarser nodal grid.

    Tensor-product cubic interpolation row and column wise, which
    reproduces polynomials up to degree three per axis, in particular the
    exact benchmark state. Equal grid sizes return the input unchanged.
    """
    if data.n_interior < n_to:
        raise ValueError('target grid must not be finer than the source')
    if data.n_interior == n_to:
        return data
    rows = _interpolation_rows(data.n_interior, n_to)
    return GridFunction(rows @ data.values @ rows.T)


@dataclass(frozen=True)
class ExperimentConfig(SolverConfig):
    """A SolverConfig plus the grids, the noise seed and the report path;
    the defaults reproduce the exact-data run.

    Parameters
    ----------
    n_data, n_recon : int
        Interior sizes of the data grid and of the coarser reconstruction
        grid, n_data >= n_recon >= 2.
    seed : int
        Seed >= 0 of the noise generator.
    output_path : str, optional
        JSON report path; a CSV of the series is written alongside.
    """

    n_data: int = 50
    n_recon: int = 40
    seed: int = 0
    output_path: str = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_recon < 2 or self.n_data < self.n_recon:
            raise ValueError('grids must satisfy n_data >= n_recon >= 2')
        if self.seed < 0:
            raise ValueError('seed must be >= 0')


@dataclass(frozen=True)
class ExperimentReport:
    """Result of one experiment run.

    Serializes to JSON via to_json/from_json without loss; write_csv emits
    the per-iteration series for external plotting. from_json also reads
    older reports: it drops only the RETIRED_RECORD_KEYS and a config key
    'restriction' that holds 'cubic', the one restriction left.
    """

    config: ExperimentConfig
    n_star: int
    stop_reason: str
    detail: str
    wall_time: float
    final_residual: float
    final_rel_error: float
    records: tuple

    def to_json(self):
        payload = dataclasses.asdict(self)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        config = payload.pop('config')
        restriction = config.pop('restriction', 'cubic')
        if restriction != 'cubic':
            raise ValueError("report uses the removed option restriction = {!r}; only "
                             "'cubic' is supported".format(restriction))
        config = ExperimentConfig(**config)
        records = tuple(
            IterationRecord(**dict({key: value for key, value in entry.items()
                                    if key not in RETIRED_RECORD_KEYS},
                                   t_params=tuple(entry['t_params']),
                                   stripe_widths=tuple(entry['stripe_widths'])))
            for entry in payload.pop('records'))
        return cls(config=config, records=records, **payload)

    def write_json(self, path):
        with open(path, 'w') as handle:
            handle.write(self.to_json())
            handle.write('\n')

    def write_csv(self, path):
        with open(path, 'w', newline='') as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for rec in self.records:
                writer.writerow([
                    rec.n,
                    repr(rec.residual_norm),
                    '' if rec.rel_error is None else repr(rec.rel_error),
                    rec.step_class or '',
                ])


def run_experiment(cfg):
    """Full pipeline: synthesize, perturb, restrict, reconstruct, report.

    Solver failures do not propagate; they are captured in the report with
    stop_reason 'failed' and the records collected up to the failure. When
    the configuration carries an output path the JSON report and the CSV
    series are written there.
    """
    tic = time.perf_counter()
    fine = synth_truth(cfg.n_data)
    observed = add_noise(fine.u, cfg.delta, cfg.s, cfg.seed)
    y = restrict(observed, cfg.n_recon)
    coarse = synth_truth(cfg.n_recon)
    op = EllipticOperator(BvpData(f=coarse.f, g=coarse.g))
    logger.info('method %s, delta=%g, data grid %d, reconstruction grid %d',
                cfg.method, cfg.delta, cfg.n_data, cfg.n_recon)
    try:
        result = run(op, y, coarse.c0, cfg, ground_truth=coarse.c)
        records = result.records
        stop_reason = result.stop_reason
        detail = result.detail
        n_star = result.n_star
    except SolverFailure as failure:
        records = failure.records
        stop_reason = StopReason.FAILED
        detail = str(failure)
        n_star = records[-1].n if records else 0
        logger.error('run failed after %d records: %s', len(records), detail)
    wall_time = time.perf_counter() - tic
    final_residual = records[-1].residual_norm if records else None
    final_rel_error = records[-1].rel_error if records else None
    report = ExperimentReport(
        config=cfg, n_star=n_star, stop_reason=stop_reason, detail=detail,
        wall_time=wall_time, final_residual=final_residual,
        final_rel_error=final_rel_error, records=records)
    logger.info('stop "%s" at n*=%d, residual %.6g, relative error %s',
                stop_reason, n_star, final_residual or float('nan'),
                final_rel_error)
    if cfg.output_path:
        report.write_json(cfg.output_path)
        stem = cfg.output_path.rsplit('.', 1)[0] if '.' in cfg.output_path \
            else cfg.output_path
        report.write_csv(stem + '.csv')
    return report


# Configuration-file keys and their types: the ExperimentConfig fields.
_CONFIG_CASTS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
# Command-line flags whose destination differs from the field name.
_FLAG_NAMES = {'cone_constant': 'ctc', 'residual_tol': 'ty', 'p_gauge': 'gauge',
               'output_path': 'out'}


def read_config_file(path):
    """Parse a key = value configuration file.

    Blank lines and '#' comments are ignored; keys must be ExperimentConfig
    fields. Returns a plain dict suitable for ExperimentConfig(**...).
    """
    values = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            body = line.split('#', 1)[0].strip()
            if not body:
                continue
            key, sep, raw = body.partition('=')
            key = key.strip()
            if not sep or not key:
                raise ValueError('{}:{}: expected key = value'.format(path, line_no))
            if key not in _CONFIG_CASTS:
                raise ValueError('{}:{}: unknown key {!r}'.format(path, line_no, key))
            values[key] = _CONFIG_CASTS[key](raw.strip())
    return values


def _config_from_args(args):
    settings = {}
    if args.config:
        settings.update(read_config_file(args.config))
    for field in _CONFIG_CASTS:
        value = getattr(args, _FLAG_NAMES.get(field, field), None)
        if value is not None:
            settings[field] = value
    return ExperimentConfig(**settings)


def _add_config_flags(parser):
    parser.add_argument('--config', help='key = value configuration file')
    parser.add_argument('--method', choices=('A', 'B'),
                        help='A: one direction, B: two directions')
    parser.add_argument('--delta', type=float, help='noise level (0 = exact data)')
    parser.add_argument('--n-data', dest='n_data', type=int,
                        help='interior size of the data grid')
    parser.add_argument('--n-recon', dest='n_recon', type=int,
                        help='interior size of the reconstruction grid')
    parser.add_argument('--r', type=float, help='parameter-space norm exponent')
    parser.add_argument('--s', type=float, help='data-space norm exponent')
    parser.add_argument('--ctc', type=float,
                        help='tangential-cone constant of the stripes')
    parser.add_argument('--tau-factor', dest='tau_factor', type=float,
                        help='discrepancy multiplier factor above the lemma bound')
    parser.add_argument('--ty', type=float,
                        help='exact-data residual stopping tolerance')
    parser.add_argument('--seed', type=int, help='noise generator seed')
    parser.add_argument('--max-outer', dest='max_outer', type=int,
                        help='outer iteration budget')
    parser.add_argument('--gauge', type=float,
                        help='parameter-space gauge (default: the exponent r)')


def _cmd_run(args):
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    print('method {} delta={:g}: stop {} at n*={}, residual {}, '
          'relative error {}'.format(
              cfg.method, cfg.delta, report.stop_reason, report.n_star,
              'n/a' if report.final_residual is None
              else '{:.6g}'.format(report.final_residual),
              'n/a' if report.final_rel_error is None
              else '{:.4%}'.format(report.final_rel_error)))
    if cfg.output_path:
        print('report written to {}'.format(cfg.output_path))
    return 0 if report.stop_reason != StopReason.FAILED else 1


def _check_line(label, passed, detail=''):
    print('{:<44s} {}{}'.format(label, 'PASS' if passed else 'FAIL',
                                ' ({})'.format(detail) if detail else ''))
    return bool(passed)


def _cmd_check(args):
    """Fast invariant battery on the configured spaces and grids."""
    cfg = _config_from_args(args)
    rng = np.random.default_rng(cfg.seed)
    ok = True

    f = GridFunction(rng.standard_normal((9, 9)))
    space = cfg.parameter_space
    jf = duality_map(f, space)
    norm = weighted_norm(f, space)
    pairing_err = abs(dual_pairing(jf, f, space) - norm ** cfg.gauge)
    ok &= _check_line('duality pairing identity', pairing_err <= 1e-10 * norm ** cfg.gauge)
    back = inverse_duality_map(jf, space)
    ok &= _check_line('duality map round trip',
                      float(np.max(np.abs(back.values - f.values))) <= 1e-10 * norm)
    other = GridFunction(rng.standard_normal((9, 9)))
    ok &= _check_line('Bregman distance nonnegative',
                      bregman_distance(f, other, space) >= 0.0
                      and bregman_distance(f, f, space) == 0.0)

    truth = synth_truth(cfg.n_recon)
    # The noise field added to a zero state: measuring add_noise(u) - u
    # instead would add the rounding of that subtraction, about
    # eps ||u|| / delta relative, to the calibration error.
    noise = add_noise(GridFunction.zeros(cfg.n_recon), 5e-4, cfg.s, cfg.seed)
    space_y = cfg.data_space
    calib = abs(weighted_norm(noise, space_y) - 5e-4)
    ok &= _check_line('noise calibration', calib <= 1e-14 * 5e-4)

    coarse = restrict(synth_truth(cfg.n_data).u, cfg.n_recon)
    restrict_err = float(np.max(np.abs(coarse.values - truth.u.values)))
    # Cubic restriction reproduces the state, quadratic per axis, to rounding.
    ok &= _check_line('restriction reproduces the exact state',
                      restrict_err <= 1e-12, 'max error {:.3g}'.format(restrict_err))

    op = EllipticOperator(BvpData(f=truth.f, g=truth.g))
    state = op.linearize(truth.c)
    direction = GridFunction.from_interior(
        rng.standard_normal((cfg.n_recon, cfg.n_recon)))
    w = GridFunction.from_interior(rng.standard_normal((cfg.n_recon, cfg.n_recon)))
    lhs = dual_pairing(w, op.derivative(state, direction), space_y)
    rhs = dual_pairing(op.adjoint(state, w), direction, space)
    ok &= _check_line('derivative/adjoint pairing',
                      abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs)))

    side = classify(truth.c0, _starting_stripe(op, truth, cfg), space)
    ok &= _check_line('starting iterate above its stripe',
                      side is StripeSide.ABOVE, side.name.lower())
    return 0 if ok else 1


def _starting_stripe(op, truth, cfg):
    state = op.linearize(truth.c0)
    return build_stripe(op, state, truth.c0, state.u - truth.u, cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='resesop',
        description='Sequential subspace optimization benchmark for the '
                    'elliptic inverse problem -Lap u + c u = f.')
    parser.add_argument('-v', '--verbose', action='store_true',
                        help='log progress and diagnostic warnings to stderr')
    commands = parser.add_subparsers(dest='command', required=True)

    run_parser = commands.add_parser('run', help='run a full experiment')
    _add_config_flags(run_parser)
    run_parser.add_argument('--out', help='report path; a CSV is written alongside')

    check_parser = commands.add_parser(
        'check', help='run the invariant battery for a configuration')
    _add_config_flags(check_parser)

    args = parser.parse_args(argv)
    # Without -v only errors reach stderr; the per-iteration diagnostics,
    # such as a stripe that misses the truth, are in the report.
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.ERROR,
        format='%(levelname)s %(name)s: %(message)s', stream=sys.stderr)
    handlers = {'run': _cmd_run, 'check': _cmd_check}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print('error: {}'.format(exc), file=sys.stderr)
        return 2


if __name__ == '__main__':
    raise SystemExit(main())
