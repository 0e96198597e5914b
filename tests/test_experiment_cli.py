"""Tests for the benchmark harness: synthetic fields with frozen hand values,
noise calibration, grid restriction, file formats, configuration precedence
and the command line surface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resesop
from resesop import experiment_cli
from resesop.elliptic_operator import EllipticOperator
from resesop.experiment_cli import (
    ExperimentConfig,
    ExperimentReport,
    add_noise,
    main,
    restrict,
    run_experiment,
    synth_truth,
)
from resesop.lp_spaces import GridFunction, SpaceSpec, weighted_norm
from resesop.sesop_solver import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    SolverFailure,
    StopReason,
)


def nodal(func, n):
    coords = np.linspace(0.0, 1.0, n + 2)
    x, y = np.meshgrid(coords, coords, indexing='ij')
    return GridFunction(func(x, y))


class TestSynthTruth:
    def test_center_values_are_the_hand_computed_ones(self):
        # n = 9 puts a node exactly at (1/2, 1/2)
        truth = synth_truth(9)
        assert truth.u.values[5, 5] == 0.0
        assert truth.c.values[5, 5] == pytest.approx(2.0, abs=1e-14)
        assert truth.c0.values[5, 5] == 1.5
        # f = -lap u + c u with lap u = 16 and u = 0 at the center
        assert truth.f.values[5, 5] == -16.0

    def test_boundary_state_is_one(self):
        truth = synth_truth(7)
        for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            np.testing.assert_array_equal(truth.u.values[sl], 1.0)
            np.testing.assert_array_equal(truth.g.values[sl], 1.0)

    def test_start_matches_truth_on_the_boundary(self):
        truth = synth_truth(8)
        diff = truth.c0.values - truth.c.values
        for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            np.testing.assert_allclose(diff[sl], 0.0, atol=1e-14)
        assert np.max(np.abs(diff)) > 0.1

    @pytest.mark.parametrize('n', [24, 40, 160])
    def test_fields_satisfy_the_discrete_problem(self, n):
        # The exact state is biquadratic, so the five-point stencil and the
        # cubic restriction reproduce it: the benchmark's exact data, from
        # the 1.25 times finer grid, equal the discrete forward map at the
        # true coefficient to rounding and carry no discretization error.
        truth = synth_truth(n)
        solved = EllipticOperator(truth.f, truth.g).linearize(truth.c).u
        data = restrict(synth_truth(5 * n // 4).u, n)
        for expected in (truth.u, data):
            np.testing.assert_allclose(solved.values, expected.values, rtol=0.0, atol=1e-10)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            synth_truth(1)

    @pytest.mark.parametrize('n', [2, 5, 40, 50, 160, 200, 321])
    def test_fields_equal_the_meshgrid_formula_bitwise(self, n):
        # The fields broadcast from one column and one row of coordinates;
        # their bits, signs of zero included, are those of the formula on
        # the full meshgrid arrays.
        coords = np.linspace(0.0, 1.0, n + 2)
        x, y = np.meshgrid(coords, coords, indexing='ij')
        quartic = 16.0 * x * (x - 1.0) * y * (1.0 - y)
        u = quartic + 1.0
        c = (1.5 * np.sin(2.0 * np.pi * x) * np.sin(3.0 * np.pi * y)
             + 3.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2) + 2.0)
        c0 = 3.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2) + 2.0 + 0.5 * quartic
        laplacian = 32.0 * (x * (1.0 - x) + y * (1.0 - y))
        f = -laplacian + c * u
        truth = synth_truth(n)
        for field, expected in ((truth.u, u), (truth.c, c), (truth.c0, c0), (truth.f, f),
                                (truth.g, np.ones_like(u))):
            assert field.values.shape == expected.shape
            assert field.values.tobytes() == expected.tobytes()


class TestAddNoise:
    @pytest.mark.parametrize('delta', [5e-4, 1e-2, 3.0])
    @pytest.mark.parametrize('seed', [0, 7])
    def test_perturbation_norm_is_calibrated(self, delta, seed):
        u = synth_truth(20).u
        noisy = add_noise(u, delta, 5.0, seed)
        space = SpaceSpec(5.0, 2.0)
        measured = weighted_norm(noisy - u, space)
        assert measured == pytest.approx(delta, rel=1e-14)

    def test_zero_level_returns_input_unchanged(self):
        u = synth_truth(6).u
        assert add_noise(u, 0.0, 5.0, 0) is u

    def test_same_seed_reproduces_the_noise(self):
        u = synth_truth(10).u
        assert add_noise(u, 1e-3, 5.0, 11) == add_noise(u, 1e-3, 5.0, 11)
        assert add_noise(u, 1e-3, 5.0, 11) != add_noise(u, 1e-3, 5.0, 12)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_noise(synth_truth(6).u, -1.0, 5.0, 0)

    def test_negative_seed_rejected(self):
        for delta in (0.0, 1e-3):
            with pytest.raises(ValueError, match='seed must be >= 0'):
                add_noise(synth_truth(6).u, delta, 5.0, -1)

    def test_non_finite_level_and_exponent_rejected_by_name(self):
        u = synth_truth(6).u
        for delta in (np.nan, np.inf):
            with pytest.raises(ValueError, match='noise level must be finite, got ' + str(delta)):
                add_noise(u, delta, 5.0, 0)
        with pytest.raises(ValueError, match='norm exponent .* got inf'):
            add_noise(u, 1e-3, np.inf, 0)


class TestRestrict:
    def test_equal_sizes_identity(self):
        u = synth_truth(12).u
        assert restrict(u, 12) is u

    def test_reproduces_constants_and_affine_functions(self):
        for func in (lambda x, y: np.ones_like(x), lambda x, y: x + y):
            fine = nodal(func, 50)
            coarse = restrict(fine, 40)
            np.testing.assert_allclose(coarse.values, nodal(func, 40).values,
                                       rtol=0.0, atol=1e-13)

    def test_cubic_reproduces_the_exact_state(self):
        coarse = restrict(synth_truth(50).u, 40)
        np.testing.assert_allclose(coarse.values, synth_truth(40).u.values,
                                   rtol=0.0, atol=1e-12)

    def test_reproduces_polynomials_of_degree_three_per_axis(self):
        # Curvature a linear interpolant would lose: x^2 y and x^3 y^3 lie in
        # the tensor-product cubics, on a fine and on a coarse pair of grids.
        for func in (lambda x, y: x * x * y, lambda x, y: x ** 3 * y ** 3 - 2.0 * x * y * y):
            for n_from, n_to in ((50, 40), (9, 5)):
                coarse = restrict(nodal(func, n_from), n_to)
                np.testing.assert_allclose(coarse.values, nodal(func, n_to).values,
                                           rtol=0.0, atol=1e-13)

    def test_error_on_smooth_data_falls_at_fourth_order(self):
        # Off the cubics the error is an interpolation error of order h^4:
        # halving the spacing of both grids divides it by about 16.
        def func(x, y):
            return np.sin(np.pi * x) * np.exp(y)

        errors = [np.max(np.abs(restrict(nodal(func, 5 * m - 1), 4 * m - 1).values
                                - nodal(func, 4 * m - 1).values)) for m in (4, 8, 16)]
        assert errors[0] > 1e-6
        assert all(coarse / fine > 14.0 for coarse, fine in zip(errors, errors[1:]))

    def test_refinement_rejected(self):
        with pytest.raises(ValueError):
            restrict(synth_truth(10).u, 20)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method='C')
        with pytest.raises(ValueError):
            ExperimentConfig(n_data=10, n_recon=20)
        with pytest.raises(ValueError):
            ExperimentConfig(tau_factor=1.0)
        # Solver fields are range-checked when the configuration is built,
        # not first inside run_experiment; c_tc = 1 must not divide by zero.
        for bad in ({'cone_constant': 1.0, 'delta': 5e-4}, {'cone_constant': 1.0},
                    {'cone_constant': 2.0, 'delta': 5e-4}, {'r': 0.5}, {'s': 1.0},
                    {'max_outer': 0}, {'delta': -1.0}, {'residual_tol': 0.0},
                    {'p_gauge': 1.0}, {'seed': -1}, {'delta': float('nan')},
                    {'tau_factor': float('nan')},
                    {'r': 0.5, 'cone_constant': 2.0, 'max_outer': 0, 'delta': -1.0}):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)
        # Infinite settings are refused by name: at inf the stopping rule
        # fires at once or the stripes degenerate.
        for name in ('r', 's', 'p_gauge', 'delta', 'tau_factor', 'residual_tol'):
            with pytest.raises(ValueError, match='^{} must be finite, got inf$'.format(name)):
                ExperimentConfig(**{name: float('inf')})

    @pytest.mark.parametrize('fields', [
        {'max_outer': 2.5}, {'max_outer': 2.0}, {'max_outer': True},
        {'n_recon': 40.0, 'n_data': 50}, {'n_data': 50.5}, {'n_data': True},
        {'seed': 7.5, 'delta': 5e-4}, {'seed': False}, {'seed': '7'}])
    def test_non_integral_counts_and_seeds_refused_by_name(self, fields):
        # Refused when the configuration is built, not with a bare TypeError
        # from range, np.linspace or SeedSequence inside run_experiment.
        name = next(iter(fields))
        message = '{} must be an integer, got {!r}'.format(name, fields[name])
        with pytest.raises(ValueError, match='^{}$'.format(re.escape(message))):
            ExperimentConfig(**fields)
        if name == 'max_outer':
            with pytest.raises(ValueError, match='^max_outer must be an integer'):
                SolverConfig(**fields)

    @pytest.mark.parametrize('fields, kind', [
        ({'delta': True}, 'a real number'), ({'tau_factor': False}, 'a real number'),
        ({'r': '1.5'}, 'a real number'), ({'p_gauge': '2'}, 'a real number'),
        ({'delta': None}, 'a real number'), ({'method': 1}, 'a string or path'),
        ({'output_path': b'report.json'}, 'a string or path')])
    def test_bools_and_strings_in_other_fields_refused_by_name(self, fields, kind):
        name = next(iter(fields))
        message = '{} must be {}, got {!r}'.format(name, kind, fields[name])
        with pytest.raises(ValueError, match='^{}$'.format(re.escape(message))):
            ExperimentConfig(**fields)

    def test_fields_are_stored_as_their_declared_types(self, tmp_path):
        cfg = ExperimentConfig(delta=np.float32(5e-4), r=np.float64(2.0), cone_constant=0,
                               max_outer=np.int16(9), output_path=tmp_path / 'a.json')
        assert cfg == ExperimentConfig(delta=float(np.float32(5e-4)), r=2.0,
                                       cone_constant=0.0, max_outer=9,
                                       output_path=str(tmp_path / 'a.json'))
        assert all(type(getattr(cfg, field.name)) is field.type
                   for field in dataclasses.fields(cfg) if field.name != 'p_gauge')
        assert cfg.p_gauge is None

    def test_gauge_defaults_to_the_norm_exponent(self):
        assert ExperimentConfig().gauge == 1.5
        assert ExperimentConfig(p_gauge=2.0).gauge == 2.0

    def test_tau_combines_factor_and_cone_constant(self):
        cfg = ExperimentConfig(cone_constant=0.01, tau_factor=1.1)
        assert cfg.tau == pytest.approx(1.1 * 1.01 / 0.99, rel=1e-15)

    def test_solver_config_translation(self):
        cfg = ExperimentConfig(method='B', delta=5e-4)
        assert cfg.stop_threshold == pytest.approx(1.1 * 1.01 / 0.99 * 5e-4, rel=1e-15)

    def test_extends_the_solver_config_without_repeating_it(self):
        assert issubclass(ExperimentConfig, SolverConfig)
        solver_fields = {f.name for f in dataclasses.fields(SolverConfig)}
        own = set(vars(ExperimentConfig)['__annotations__'])
        assert own == {'n_data', 'n_recon', 'seed', 'output_path'}
        assert not own & solver_fields
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == own | solver_fields
        assert not {'gauge', 'tau', 'stop_threshold'} & set(vars(ExperimentConfig))


@pytest.fixture(scope='module')
def small_report():
    return run_experiment(ExperimentConfig(method='B', n_data=16, n_recon=12,
                                           residual_tol=1e-3, max_outer=60))


class TestReports:
    def test_json_round_trip_is_lossless(self, small_report):
        assert ExperimentReport.from_json(small_report.to_json()) == small_report

    def test_json_text_is_that_of_the_asdict_formula(self):
        # The report serializes its fields in place with the same bytes as
        # json.dumps of dataclasses.asdict, on None, bools, tuples, floats,
        # strings and the nested config.
        config = ExperimentConfig(method='B', delta=5e-4, seed=3, p_gauge=None,
                                  output_path='out.json')
        records = (
            IterationRecord(n=0, residual_norm=0.25, rel_error=0.5, t_params=(1.5, -0.0),
                            stripe_widths=(1e-300, 2.0), step_class='two_plane',
                            truth_inside=True, cone_ratio=float('inf')),
            IterationRecord(n=1, residual_norm=1e-3, truth_inside=False))
        report = ExperimentReport(config=config, n_star=1, stop_reason=StopReason.DISCREPANCY,
                                  detail='a "quoted" detail', wall_time=0.125,
                                  final_residual=1e-3, final_rel_error=None, records=records)
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)

    def test_report_written_before_the_step_certificate_still_parses(self):
        # A report of the code that recorded the decrease surrogate and gamma
        # and had no step distance.
        old = json.dumps({
            'config': dict(dataclasses.asdict(ExperimentConfig(
                method='B', n_data=3, n_recon=2, max_outer=1))),
            'n_star': 1, 'stop_reason': 'residual_tolerance', 'detail': '',
            'wall_time': 0.0024586720028310083,
            'final_residual': 0.0001028172967577544,
            'final_rel_error': 0.0016152929086935919,
            'records': [
                {'n': 0, 'residual_norm': 0.003565746250443848,
                 'rel_error': 0.05495326390399985, 't_params': [1854.7709168024955],
                 'stripe_widths': [1.2714546322554365e-07],
                 'step_class': 'single_projection', 'wall_time': 0.001397491003444884,
                 'bregman_to_truth': 0.012581049880468598,
                 'above_margin': 1.258740085932883e-05, 'truth_inside': False,
                 'cone_ratio': 0.019981267561644728,
                 'decrease_surrogate': 0.18616892110259514,
                 'direction_cosine': None, 'gamma': None},
                {'n': 1, 'residual_norm': 0.0001028172967577544,
                 'rel_error': 0.0016152929086935919, 't_params': [],
                 'stripe_widths': [], 'step_class': None,
                 'wall_time': 0.00013888200192013755,
                 'bregman_to_truth': 1.0197283106805344e-05, 'above_margin': None,
                 'truth_inside': None, 'cone_ratio': None, 'decrease_surrogate': None,
                 'direction_cosine': None, 'gamma': None}]})
        report = ExperimentReport.from_json(old)
        first = report.records[0]
        assert first.t_params == (1854.7709168024955,)
        assert first.cone_ratio == 0.019981267561644728
        assert first.step_distance is None
        rewritten = json.loads(report.to_json())
        assert all('decrease_surrogate' not in entry and 'gamma' not in entry
                   and 'step_distance' in entry for entry in rewritten['records'])
        assert ExperimentReport.from_json(report.to_json()) == report
        # Only the two retired keys are dropped; any other unknown key fails.
        payload = json.loads(old)
        payload['records'][1]['surrogate'] = None
        with pytest.raises(TypeError, match='surrogate'):
            ExperimentReport.from_json(json.dumps(payload))

    def test_report_with_the_removed_restriction_option_still_parses(self, small_report):
        # Reports of the code that offered a bilinear restriction record
        # 'restriction': 'cubic' for every run this code reproduces.
        payload = json.loads(small_report.to_json())
        payload['config']['restriction'] = 'cubic'
        report = ExperimentReport.from_json(json.dumps(payload))
        assert report == small_report
        assert 'restriction' not in json.loads(report.to_json())['config']
        payload['config']['restriction'] = 'bilinear'
        with pytest.raises(ValueError, match="removed option restriction = 'bilinear'"):
            ExperimentReport.from_json(json.dumps(payload))

    def test_written_files(self, small_report, tmp_path):
        json_path = tmp_path / 'report.json'
        csv_path = tmp_path / 'report.csv'
        small_report.write_json(json_path)
        small_report.write_csv(csv_path)
        parsed = ExperimentReport.from_json(json_path.read_text())
        assert parsed.n_star == small_report.n_star
        lines = csv_path.read_text().splitlines()
        assert lines[0] == 'n,residual,rel_error,step_class'
        assert len(lines) == len(small_report.records) + 1
        n, residual, rel_error, step_class = lines[1].split(',')
        record = small_report.records[0]
        assert int(n) == record.n
        assert float(residual) == record.residual_norm
        assert float(rel_error) == record.rel_error
        assert step_class == record.step_class
        # the stopping record carries no step
        assert lines[-1].endswith(',')

    @pytest.mark.parametrize('out, csv', [('runs.v2/report', 'runs.v2/report.csv'),
                                          ('runs.v2/report.json', 'runs.v2/report.csv'),
                                          ('.hidden', '.hidden.csv')])
    def test_csv_is_written_beside_the_json(self, tmp_path, monkeypatch, out, csv):
        # The CSV path is the report path with its extension, if any,
        # replaced: a dot in a directory name or a leading dot is no
        # extension.
        monkeypatch.chdir(tmp_path)
        (tmp_path / 'runs.v2').mkdir()
        run_experiment(ExperimentConfig(n_data=8, n_recon=6, max_outer=3, output_path=out))
        written = sorted(path.relative_to(tmp_path).as_posix()
                         for path in tmp_path.rglob('*') if path.is_file())
        assert written == sorted([out, csv])

    def test_report_of_a_config_with_numpy_integers_round_trips(self, tmp_path):
        # Integral numpy values are stored as ints, which the report can write.
        path = tmp_path / 'report.json'
        report = run_experiment(ExperimentConfig(
            n_data=np.int64(10), n_recon=np.int32(8), delta=5e-4, seed=np.uint8(7),
            max_outer=np.int64(3), output_path=str(path)))
        cfg = report.config
        assert {type(value) for value in (cfg.n_data, cfg.n_recon, cfg.seed,
                                          cfg.max_outer)} == {int}
        assert ExperimentReport.from_json(path.read_text()) == report

    def test_a_float32_noise_level_runs_as_its_float_value(self):
        # Stored as a float, the level keeps the stripe widths and the stop
        # threshold in double precision, and the report can be written.
        runs = [run_experiment(ExperimentConfig(n_data=10, n_recon=8, max_outer=3, seed=7,
                                                delta=delta))
                for delta in (np.float32(5e-4), float(np.float32(5e-4)))]
        single, double = (dataclasses.replace(
            report, wall_time=0.0,
            records=tuple(dataclasses.replace(rec, wall_time=0.0) for rec in report.records))
            for report in runs)
        assert single == double
        assert ExperimentReport.from_json(runs[0].to_json()) == runs[0]

    def test_a_path_as_report_path_writes_both_files(self, tmp_path):
        report = run_experiment(ExperimentConfig(n_data=8, n_recon=6, max_outer=3,
                                                 output_path=tmp_path / 'report.json'))
        assert sorted(path.name for path in tmp_path.iterdir()) == ['report.csv',
                                                                    'report.json']
        assert ExperimentReport.from_json((tmp_path / 'report.json').read_text()) == report

    def test_a_report_that_cannot_be_serialized_leaves_the_file_alone(
            self, small_report, tmp_path):
        path = tmp_path / 'report.json'
        path.write_text('an earlier report\n')
        broken = dataclasses.replace(small_report, n_star=np.int64(small_report.n_star))
        with pytest.raises(TypeError):
            broken.write_json(path)
        assert path.read_text() == 'an earlier report\n'

    def test_same_configuration_reproduces_the_run(self, small_report):
        cfg = small_report.config
        again = run_experiment(cfg)
        assert again.n_star == small_report.n_star
        assert again.stop_reason == small_report.stop_reason
        for a, b in zip(again.records, small_report.records):
            assert a.residual_norm == b.residual_norm
            assert a.rel_error == b.rel_error
            assert a.t_params == b.t_params

    def test_solver_failure_is_reported_not_raised(self, monkeypatch):
        from resesop import experiment_cli

        def explode(*args, **kwargs):
            raise SolverFailure('synthetic breakdown')

        monkeypatch.setattr(experiment_cli, 'run', explode)
        report = run_experiment(ExperimentConfig(n_data=8, n_recon=6))
        assert report.stop_reason == StopReason.FAILED
        assert 'synthetic breakdown' in report.detail
        assert report.records == ()
        assert report.final_residual is None

    def test_a_zero_final_residual_is_logged_as_zero(self, monkeypatch, caplog):
        # A residual of exactly 0.0 is a value, not a missing record.
        def solved(op, y, x0, cfg, monitors=()):
            record = IterationRecord(n=0, residual_norm=0.0, rel_error=0.0)
            return SolveResult(iterate=x0, records=(record,),
                               stop_reason=StopReason.RESIDUAL_TOLERANCE, n_star=0)

        monkeypatch.setattr(experiment_cli, 'run', solved)
        with caplog.at_level('INFO', logger='resesop.experiment_cli'):
            report = run_experiment(ExperimentConfig(n_data=8, n_recon=6))
        assert report.final_residual == 0.0
        assert caplog.messages[-1] == (
            'stop "residual_tolerance" at n*=0, residual 0, relative error 0.0')

    def test_benchmark_run_lands_in_the_expected_band(self, exact_report_a):
        assert exact_report_a.stop_reason == StopReason.RESIDUAL_TOLERANCE
        assert 14 <= exact_report_a.n_star <= 41
        assert exact_report_a.final_rel_error <= 0.15


def config_read_by_check(path, monkeypatch):
    # The configuration `resesop check --config path` would run.
    seen = []

    def record(args):
        seen.append(experiment_cli._config_from_args(args))
        return 0

    monkeypatch.setattr(experiment_cli, '_cmd_check', record)
    assert main(['check', '--config', str(path)]) == 0
    return seen[0]


class TestConfigFile:
    def test_parse_types_comments_and_blanks(self, tmp_path, monkeypatch):
        path = tmp_path / 'bench.cfg'
        path.write_text(
            '# benchmark setup\n'
            'method = B\n'
            'delta = 5e-4\n'
            'n_recon = 12   # coarse grid\n'
            '\n'
            'seed = 5\n')
        assert config_read_by_check(path, monkeypatch) == ExperimentConfig(
            method='B', delta=5e-4, n_recon=12, seed=5)

    def test_unknown_keys_and_garbage_rejected(self, tmp_path, capsys):
        bad_key = tmp_path / 'bad.cfg'
        bad_key.write_text('colour = blue\n')
        assert main(['check', '--config', str(bad_key)]) == 2
        assert capsys.readouterr().err == "error: {}:1: unknown key 'colour'\n".format(bad_key)
        garbage = tmp_path / 'garbage.cfg'
        garbage.write_text('just words\n')
        assert main(['check', '--config', str(garbage)]) == 2
        assert capsys.readouterr().err == 'error: {}:1: expected key = value\n'.format(garbage)

    @pytest.mark.parametrize('line, error', [
        ('delta = abc', "invalid value for 'delta': could not convert string to float: 'abc'"),
        ('max_outer = 1e3', "invalid value for 'max_outer': invalid literal for int() "
                            "with base 10: '1e3'")])
    def test_a_bad_value_names_its_file_line_and_key(self, tmp_path, capsys, line, error):
        path = tmp_path / 'bench.cfg'
        path.write_text('# benchmark setup\nmethod = B\n' + line + '\n')
        assert main(['check', '--config', str(path)]) == 2
        assert capsys.readouterr().err == 'error: {}:3: {}\n'.format(path, error)

    @pytest.mark.parametrize('line, error', [
        ('delta = -1', "invalid value for 'delta': noise level must be >= 0"),
        ('method = b', "invalid value for 'method': method must be 'A' or 'B'"),
        ('n_recon = 60', "invalid value for 'n_recon': grids must satisfy "
                         "n_data >= n_recon >= 2")])
    def test_a_refused_value_names_its_file_line_and_key(self, tmp_path, capsys, line,
                                                         error):
        # The value parses, so only ExperimentConfig refuses it.
        path = tmp_path / 'bench.cfg'
        path.write_text('# benchmark setup\nseed = 5\n' + line + '\n')
        assert main(['check', '--config', str(path)]) == 2
        assert capsys.readouterr().err == 'error: {}:3: {}\n'.format(path, error)

    def test_a_repeated_key_is_placed_at_its_last_line(self, tmp_path, capsys):
        # The last assignment of a key is the one read, so it alone is placed.
        path = tmp_path / 'bench.cfg'
        path.write_text('delta = -1\nseed = 5\ndelta = 0\n')
        assert main(['check', '--config', str(path)]) == 0
        capsys.readouterr()
        path.write_text('delta = 0\nseed = 5\ndelta = -1\n')
        assert main(['check', '--config', str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: {}:3: invalid value for 'delta': noise level must be >= 0\n"
            .format(path))

    def test_a_joint_refusal_names_the_file_and_its_keys(self, tmp_path, capsys):
        # Either grid size alone passes against the other's default.
        path = tmp_path / 'grids.cfg'
        path.write_text('n_data = 45\nn_recon = 48\n')
        assert main(['check', '--config', str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: {}: keys 'n_data', 'n_recon' refused together: grids must "
            "satisfy n_data >= n_recon >= 2\n".format(path))

    def test_a_refusal_the_file_does_not_produce_is_not_placed_in_it(self, tmp_path,
                                                                      capsys):
        # A flag overrides a refused file value, and its own refusal, or one
        # it makes with a valid file value, does not name the file.
        path = tmp_path / 'bench.cfg'
        path.write_text('delta = -1\nn_recon = 12\n')
        assert main(['check', '--config', str(path), '--delta', '0',
                     '--n-data', '12']) == 0
        capsys.readouterr()
        for flags, error in ((['--tau-factor', '0.5'], 'tau factor must exceed 1'),
                             (['--n-data', '10'], 'grids must satisfy n_data >= '
                                                  'n_recon >= 2')):
            assert main(['check', '--config', str(path), '--delta', '0'] + flags) == 2
            assert capsys.readouterr().err == 'error: {}\n'.format(error)

    def test_command_line_overrides_file_values(self, tmp_path, capsys):
        path = tmp_path / 'bench.cfg'
        path.write_text('method = B\nn_data = 16\nn_recon = 12\n'
                        'residual_tol = 1e-3\nseed = 5\n')
        out = tmp_path / 'report.json'
        code = main(['run', '--config', str(path), '--seed', '3',
                     '--out', str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload['config']['seed'] == 3
        assert payload['config']['method'] == 'B'
        assert payload['config']['n_recon'] == 12

    def test_every_field_is_settable_from_file_and_flag(self, tmp_path):
        values = {'method': 'B', 'delta': 1e-3, 'n_data': 14, 'n_recon': 12,
                  'r': 1.8, 's': 4.0, 'cone_constant': 0.02, 'tau_factor': 1.2,
                  'residual_tol': 2e-3, 'seed': 5, 'max_outer': 3, 'p_gauge': 2.5,
                  'output_path': None}
        fields = dataclasses.fields(ExperimentConfig)
        assert set(values) == {f.name for f in fields}
        assert all(values[f.name] != f.default for f in fields if f.name != 'output_path')
        renamed = {'cone_constant': '--ctc', 'residual_tol': '--ty', 'p_gauge': '--gauge',
                   'output_path': '--out'}
        file_out = tmp_path / 'from_file.json'
        config_file = tmp_path / 'all.cfg'
        config_file.write_text(''.join(
            '{} = {}\n'.format(name, file_out if value is None else value)
            for name, value in values.items()))
        flag_out = tmp_path / 'from_flags.json'
        flags = ['run']
        for name, value in values.items():
            flags += [renamed.get(name, '--' + name.replace('_', '-')),
                      str(flag_out if value is None else value)]
        for argv, out in ((['run', '--config', str(config_file)], file_out),
                          (flags, flag_out)):
            main(argv)
            config = json.loads(out.read_text())['config']
            assert config == dict(values, output_path=str(out))


class TestCommandLine:
    def test_run_writes_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / 'exp.json'
        code = main(['run', '--method', 'B', '--n-data', '16', '--n-recon', '12',
                     '--ty', '1e-3', '--out', str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert 'stop residual_tolerance' in stdout
        report = ExperimentReport.from_json(out.read_text())
        assert report.stop_reason == StopReason.RESIDUAL_TOLERANCE
        # run_experiment attaches the truth monitor: its columns fill every
        # record, and the stopping record carries no step fields.
        assert all(rec.rel_error is not None and rec.bregman_to_truth is not None
                   for rec in report.records)
        last = report.records[-1]
        assert (last.t_params, last.stripe_widths, last.step_class, last.step_distance,
                last.truth_inside, last.cone_ratio) == ((), (), None, None, None, None)
        csv_lines = (tmp_path / 'exp.csv').read_text().splitlines()
        assert csv_lines[0] == 'n,residual,rel_error,step_class'
        assert len(csv_lines) == len(report.records) + 1

    def test_run_exits_1_when_the_solver_fails(self, monkeypatch, tmp_path, capsys):
        def explode(*args, **kwargs):
            raise SolverFailure('synthetic breakdown')

        monkeypatch.setattr(experiment_cli, 'run', explode)
        out = tmp_path / 'failed.json'
        assert main(['run', '--n-data', '8', '--n-recon', '6', '--out', str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            'method A delta=0: stop failed at n*=0, residual n/a, relative error n/a')
        text = out.read_text()
        report = ExperimentReport.from_json(text)
        assert report.stop_reason == StopReason.FAILED
        assert report.to_json() + '\n' == text
        assert (tmp_path / 'failed.csv').read_text().splitlines() == [
            'n,residual,rel_error,step_class']

    def test_check_battery_passes_on_the_default_setup(self, capsys):
        code = main(['check', '--n-data', '16', '--n-recon', '12'])
        assert code == 0
        stdout = capsys.readouterr().out
        assert 'FAIL' not in stdout
        assert stdout.count('PASS') >= 6

    @pytest.mark.parametrize('seed', range(10))
    def test_check_battery_calibrates_noise_on_the_smallest_grid(self, seed, capsys):
        # On a 2 x 2 grid ||u|| / delta is large; the rounding of
        # add_noise(u) - u used to exceed the 1e-14 delta tolerance.
        assert main(['check', '--n-recon', '2', '--n-data', '2', '--seed', str(seed)]) == 0
        assert 'FAIL' not in capsys.readouterr().out

    @pytest.mark.parametrize('n_data, n_recon', [(9, 5), (3, 2)])
    def test_check_battery_bounds_the_cubic_restriction_on_coarse_grids(
            self, n_data, n_recon, capsys):
        # The exact state is quadratic per axis, so its cubic restriction
        # meets the rounding bound even on grids of a few nodes.
        assert main(['check', '--n-data', str(n_data), '--n-recon', str(n_recon)]) == 0
        assert 'FAIL' not in capsys.readouterr().out

    def test_removed_restriction_option_exits_2(self, tmp_path, capsys):
        # The option is gone from configuration files and flags alike.
        config_file = tmp_path / 'old.cfg'
        config_file.write_text('restriction = cubic\n')
        assert main(['run', '--config', str(config_file)]) == 2
        assert "unknown key 'restriction'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(['run', '--restriction', 'cubic'])
        assert exit_info.value.code == 2
        assert 'unrecognized arguments: --restriction' in capsys.readouterr().err

    def test_check_battery_detects_a_restriction_error_beyond_its_bound(
            self, monkeypatch, capsys):
        # Cubic restriction reproduces the state to rounding, so the check
        # allows a few eps of the data; an offset of 2e-3 breaks that.
        def offset(data, n_to):
            return restrict(data, n_to) + GridFunction.full(n_to, 2e-3)

        monkeypatch.setattr(experiment_cli, 'restrict', offset)
        assert main(['check']) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert len(failed) == 1 and failed[0].startswith('restriction')

    def test_check_battery_detects_an_adjoint_off_by_a_millionth(self, monkeypatch, capsys):
        # Two solves at the operator's backward tolerance leave a pairing gap
        # far below 1e-6 of the pairing; the fixed 1e-10 (1 + |lhs|) allowed it.
        adjoint = EllipticOperator.adjoint

        def scaled(self, state, w):
            return (1.0 + 1e-6) * adjoint(self, state, w)

        monkeypatch.setattr(EllipticOperator, 'adjoint', scaled)
        assert main(['check']) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert len(failed) == 1 and failed[0].startswith('derivative/adjoint')

    def test_check_battery_detects_a_duality_round_trip_error_beyond_its_bound(
            self, monkeypatch, capsys):
        # The round trip returns f to a few eps; the fixed 1e-10 ||f|| allowed
        # a relative error of 1e-12.
        inverse = experiment_cli.inverse_duality_map

        def scaled(jf, space):
            return inverse(jf, space) * (1.0 + 1e-12)

        monkeypatch.setattr(experiment_cli, 'inverse_duality_map', scaled)
        assert main(['check']) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert len(failed) == 1 and failed[0].startswith('duality map round trip')

    def test_check_battery_skips_entries_whose_image_underflows(self, monkeypatch, capsys):
        # At r = 100 the entry 1.8e-4 of seed 8's field maps to |f|^99 = 0,
        # which no inverse map can return to 1.8e-4; only that entry is skipped.
        flags = ['check', '--r', '100', '--seed', '8']
        assert main(flags) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ('duality map round trip                       PASS (images skipped for '
                'underflow: 1)') in lines
        assert 'FAIL' not in '\n'.join(lines)
        # The other entries are still judged: the bound at r = 100 is 1.8e-11
        # of max|f|, and a relative error of 1e-9 breaks it.
        inverse = experiment_cli.inverse_duality_map
        monkeypatch.setattr(experiment_cli, 'inverse_duality_map',
                            lambda jf, space: inverse(jf, space) * (1.0 + 1e-9))
        assert main(flags) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert len(failed) == 1 and failed[0].startswith('duality map round trip')

    def test_check_battery_judges_every_entry_with_a_normal_image(self, capsys):
        # At r = 1.001 and gauge 6 every image is near 0.38, a normal double,
        # so nothing is skipped; the inverse map's norm, with exponent
        # r* = 1001, underflows to 0 and the whole field comes back as 0,
        # which the round trip still reports.
        assert main(['check', '--r', '1.001', '--gauge', '6', '--seed', '1']) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert failed == ['duality map round trip                       FAIL (images skipped '
                          'for underflow: 0)']

    @pytest.mark.parametrize('r, gauge', [('1.1', '1.1'), ('1.2', '3'), ('8', '8')])
    def test_check_battery_round_trip_bound_grows_with_the_exponents(
            self, r, gauge, capsys):
        # The round trip's rounding grows with r, r*, q and q*; its bound
        # follows them, so valid exponents away from 2 pass on every seed.
        for seed in range(10):
            assert main(['check', '--r', r, '--gauge', gauge, '--seed', str(seed)]) == 0
            assert 'FAIL' not in capsys.readouterr().out

    def test_check_battery_detects_a_miscalibrated_noise_field(self, monkeypatch, capsys):
        def scaled(u, delta, exponent, seed):
            return add_noise(u, delta * (1.0 + 1e-12), exponent, seed)

        monkeypatch.setattr(experiment_cli, 'add_noise', scaled)
        assert main(['check', '--n-recon', '2', '--n-data', '2']) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if 'FAIL' in line]
        assert len(failed) == 1 and failed[0].startswith('noise calibration')

    def test_invalid_values_exit_cleanly(self, capsys):
        assert main(['run', '--tau-factor', '0.5']) == 2
        assert main(['run', '--config', '/no/such/file.cfg']) == 2
        err = capsys.readouterr().err
        assert 'error: tau factor must exceed 1' in err
        assert 'Traceback' not in err
        # c_tc = 1 with noisy data used to escape as a ZeroDivisionError.
        assert main(['run', '--ctc', '1', '--delta', '5e-4']) == 2
        assert capsys.readouterr().err.splitlines() == [
            'error: cone constant must lie in [0, 1), got 1.0']
        # An infinite tau factor used to stop a noisy run at n* = 0.
        assert main(['run', '--tau-factor', 'inf', '--delta', '5e-4']) == 2
        assert capsys.readouterr().err.splitlines() == [
            'error: tau_factor must be finite, got inf']
        # A negative seed is refused before the noise is synthesized.
        for delta in ('0', '5e-4'):
            assert main(['run', '--seed', '-1', '--delta', delta]) == 2
            assert capsys.readouterr().err.splitlines() == ['error: seed must be >= 0']


    def test_module_entry_point_places_a_refused_config_value(self, tmp_path):
        # `python -m resesop` reports the refusal with the file, line and key.
        env = dict(os.environ, PYTHONPATH=str(Path(resesop.__file__).resolve().parents[1]))
        path = tmp_path / 'refused.cfg'
        for line, key in (('delta = -1', 'delta'), ('method = b', 'method')):
            path.write_text(line + '\n')
            proc = subprocess.run([sys.executable, '-m', 'resesop', 'check', '--config',
                                   str(path)], capture_output=True, text=True, env=env,
                                  timeout=300, check=False)
            assert proc.returncode == 2
            assert proc.stdout == ''
            assert proc.stderr.startswith(
                "error: {}:1: invalid value for {!r}: ".format(path, key))


class TestLogging:
    def test_library_is_quiet_without_logging_setup(self):
        # The default method-A run logs a warning per stripe that misses the
        # truth; a process that configured no logging must not print them.
        code = ('from resesop import ExperimentConfig, run_experiment\n'
                'report = run_experiment(ExperimentConfig(method="A"))\n'
                'assert any(rec.truth_inside is False for rec in report.records)\n')
        env = dict(os.environ, PYTHONPATH=str(Path(resesop.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, '-c', code], capture_output=True,
                              text=True, env=env, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ''

    def test_command_line_is_quiet_without_verbose(self, tmp_path):
        # The same run from the command line: its cone warnings need -v.
        env = dict(os.environ, PYTHONPATH=str(Path(resesop.__file__).resolve().parents[1]))
        argv = [sys.executable, '-m', 'resesop', 'run', '--method', 'A',
                '--out', str(tmp_path / 'report.json')]
        quiet = subprocess.run(argv, capture_output=True, text=True, env=env,
                               timeout=300, check=False)
        assert quiet.returncode == 0, quiet.stderr
        assert quiet.stderr == ''
        verbose = subprocess.run(argv[:3] + ['-v'] + argv[3:], capture_output=True,
                                 text=True, env=env, timeout=300, check=False)
        assert 'tangential-cone ratio' in verbose.stderr
