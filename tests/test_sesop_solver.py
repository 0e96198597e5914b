"""Unit tests for the outer iteration on small stub operators.

A linear stub operator makes every quantity hand-checkable: in the Hilbert
reduction the single-direction step must equal a classical Landweber step
with exact line search, and the two-direction correction must match a dense
Gram-matrix projection. The full nonlinear machinery is smoke-tested on a
small elliptic instance; the benchmark behaviors live with the experiment
tests.
"""

import dataclasses
import logging

import numpy as np
import pytest

from resesop import bregman_geometry, sesop_solver
from resesop.bregman_geometry import Stripe, project_two_stage
from resesop.elliptic_operator import EllipticOperator, LinearSolveError
from resesop.experiment_cli import (
    ExperimentConfig,
    add_noise,
    restrict,
    run_experiment,
    synth_truth,
)
from resesop.lp_spaces import (
    GridFunction,
    SpaceSpec,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    weighted_norm,
)
from resesop.sesop_solver import (
    IterationRecord,
    SolverConfig,
    SolverFailure,
    StepClass,
    StopReason,
    TruthMonitor,
    build_stripe,
    run,
)


class LinearStub:
    """F(x) = offset + A x with A acting on raveled interior values."""

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = offset
        self.n = offset.n_interior

    def _apply(self, matrix, grid):
        interior = matrix @ grid.interior.ravel()
        return GridFunction.from_interior(interior.reshape(self.n, self.n))

    def linearize(self, x, start=None):
        return dataclasses.make_dataclass('State', ['u', 'x'])(
            u=self.offset + self._apply(self.matrix, x), x=x)

    def derivative(self, state, direction, start=None):
        return self._apply(self.matrix, direction)

    def adjoint(self, state, w):
        return self._apply(self.matrix.T, w)


def identity_stub(n):
    return LinearStub(np.eye(n * n), GridFunction.zeros(n))


def hilbert_config(**kwargs):
    defaults = dict(r=2.0, s=2.0, cone_constant=0.0, delta=0.0,
                    residual_tol=1e-9, max_outer=50, method='A')
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def monitored_run(op, y, x0, cfg, truth):
    """`run` with a TruthMonitor of `truth` attached."""
    return run(op, y, x0, cfg, monitors=[TruthMonitor(op, truth, cfg)])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r=1.0, s=2.0)
    with pytest.raises(ValueError):
        SolverConfig(r=2.0, s=2.0, cone_constant=1.0)
    with pytest.raises(ValueError):
        SolverConfig(r=2.0, s=2.0, cone_constant=-0.1)
    # tau must exceed the lemma bound, for exact and for noisy data
    for delta in (0.0, 1e-3):
        with pytest.raises(ValueError, match='tau factor must exceed 1'):
            SolverConfig(r=2.0, s=2.0, delta=delta, cone_constant=0.01, tau_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(r=2.0, s=2.0, method='C')
    with pytest.raises(ValueError):
        SolverConfig(r=2.0, s=2.0, max_outer=0)
    cfg = SolverConfig(r=1.5, s=5.0, delta=5e-4, cone_constant=0.01,
                       tau_factor=1.1)
    assert cfg.stop_threshold == pytest.approx(1.1 * 1.01 / 0.99 * 5e-4)


def test_solver_config_gauge_default():
    assert SolverConfig(r=1.5, s=5.0).gauge == 1.5
    assert SolverConfig(r=3.0, s=2.0).gauge == 3.0
    assert SolverConfig(r=1.5, s=5.0, p_gauge=2.0).gauge == 2.0
    # The two spaces of the method: the gauge on the parameters, 2 on the data.
    assert SolverConfig(r=1.2).parameter_space == SpaceSpec(1.2, 1.2)
    cfg = SolverConfig(r=3.0, s=1.5, p_gauge=2.5)
    assert cfg.parameter_space == SpaceSpec(3.0, 2.5)
    assert cfg.data_space == SpaceSpec(1.5, 2.0)


def test_iteration_record_validation():
    with pytest.raises(ValueError):
        IterationRecord(n=0, residual_norm=-1.0)


def test_build_stripe_formulas():
    rng = np.random.default_rng(40)
    n = 4
    op = LinearStub(rng.standard_normal((n * n, n * n)), GridFunction.zeros(n))
    space_y = SpaceSpec(5.0, 2.0)
    x = GridFunction.from_interior(rng.standard_normal((n, n)))
    y = GridFunction.from_interior(rng.standard_normal((n, n)))
    state = op.linearize(x)
    residual = state.u - y
    w = duality_map(residual, space_y)
    cfg = SolverConfig(r=1.5, s=5.0, cone_constant=0.02, delta=1e-3,
                       tau_factor=1.2)
    stripe = build_stripe(op, state, x, residual, cfg)
    u_star = op.adjoint(state, w)
    np.testing.assert_array_equal(stripe.u_star.values, u_star.values)
    expected_alpha = dual_pairing(u_star, x) - dual_pairing(w, residual)
    assert stripe.alpha == pytest.approx(expected_alpha, rel=1e-14)
    res_norm = weighted_norm(residual, space_y)
    w_norm = weighted_norm(w, space_y.dual())
    assert stripe.xi == pytest.approx(
        (1e-3 + 0.02 * (res_norm + 1e-3)) * w_norm, rel=1e-14)
    # w = J_2(residual) has dual norm equal to the residual norm
    assert w_norm == pytest.approx(res_norm, rel=1e-12)

    exact_cfg = SolverConfig(r=1.5, s=5.0, cone_constant=0.02)
    exact = build_stripe(op, state, x, residual, exact_cfg)
    assert exact.xi == pytest.approx(0.02 * w_norm * res_norm, rel=1e-14)
    collapsed_cfg = SolverConfig(r=1.5, s=5.0, cone_constant=0.0)
    assert build_stripe(op, state, x, residual, collapsed_cfg).xi == 0.0


def test_build_stripe_degenerate_direction():
    n = 3
    op = LinearStub(np.zeros((n * n, n * n)), GridFunction.zeros(n))
    x = GridFunction.full(n, 1.0)
    state = op.linearize(x)
    with pytest.raises(bregman_geometry.GeometryError, match='adjoint image .* is zero'):
        build_stripe(op, state, x, state.u - GridFunction.zeros(n), hilbert_config())


def step(op, state, x, residual, previous, cfg):
    """The step of `run`: the stripe of x, the margin by which x lies above
    it, and the two-stage projection (next iterate, coefficients)."""
    stripe = build_stripe(op, state, x, residual, cfg)
    space = cfg.parameter_space
    margin = dual_pairing(stripe.u_star, x) - (stripe.alpha + stripe.xi)
    return stripe, margin, project_two_stage(x, stripe, previous, space)


def test_landweber_step_matches_classical_landweber():
    # Hilbert reduction, c_tc = 0, no previous stripe (the one-direction
    # method): the step is x - (||R||^2/||u*||^2) u*, and its Bregman step
    # distance is (1/2)||x_next - x||^2.
    rng = np.random.default_rng(41)
    n = 4
    matrix = rng.standard_normal((n * n, n * n))
    op = LinearStub(matrix / np.linalg.norm(matrix, 2), GridFunction.zeros(n))
    space = SpaceSpec(2.0, 2.0)
    cfg = hilbert_config()
    x = GridFunction.from_interior(rng.standard_normal((n, n)))
    y = GridFunction.from_interior(rng.standard_normal((n, n)))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    state = op.linearize(x)
    residual = state.u - y
    stripe, margin, (x_next, t) = step(op, state, x, residual, None, cfg)
    u_star = op.adjoint(state, residual)  # J_2 = identity on both spaces
    t_oracle = (weighted_norm(residual, space) ** 2
                / weighted_norm(u_star, space) ** 2)
    oracle = GridFunction(x.values - t_oracle * u_star.values)
    np.testing.assert_allclose(x_next.values, oracle.values, rtol=1e-9, atol=1e-12)
    assert t[0] == pytest.approx(t_oracle, rel=1e-9)
    assert len(t) == 1
    assert margin > 0.0
    # run records the same step
    record = monitored_run(op, y, x, hilbert_config(max_outer=1), truth).records[0]
    assert record.step_class == StepClass.SINGLE_PROJECTION
    assert record.t_params == t
    assert record.above_margin == margin
    assert record.stripe_widths == (0.0,)
    assert record.step_distance == pytest.approx(
        0.5 * weighted_norm(x_next - x, space) ** 2, rel=1e-12)


def two_dir_setup(seed=42, n=4):
    rng = np.random.default_rng(seed)
    op = LinearStub(rng.standard_normal((n * n, n * n)), GridFunction.zeros(n))
    x = GridFunction.from_interior(rng.standard_normal((n, n)))
    y = GridFunction.from_interior(rng.standard_normal((n, n)))
    state = op.linearize(x)
    return op, x, y, state, state.u - y, rng


def test_two_dir_step_without_previous_stripe():
    op, x, y, state, residual, _ = two_dir_setup()
    cfg = hilbert_config(method='B')
    stripe, _, (x_next, t) = step(op, state, x, residual, None, cfg)
    assert len(t) == 1  # a single projection
    # with xi = 0 the step must land on the central hyperplane
    assert abs(dual_pairing(stripe.u_star, x_next)
               - stripe.alpha) <= 1e-8 * (1.0 + abs(stripe.alpha))


def test_two_dir_step_keeps_point_inside_previous_stripe():
    op, x, y, state, residual, rng = two_dir_setup(seed=43)
    cfg = hilbert_config(method='B')
    wide = Stripe(GridFunction.from_interior(rng.standard_normal((4, 4))),
                  0.0, 1e9)  # so wide the intermediate point stays inside
    _, _, (_, t) = step(op, state, x, residual, wide, cfg)
    assert len(t) == 1  # a single projection


def test_two_dir_step_correction_matches_gram_oracle():
    op, x, y, state, residual, rng = two_dir_setup(seed=44)
    cfg = hilbert_config(method='B')
    # A narrow previous stripe the intermediate point will violate.
    u_prev = GridFunction.from_interior(rng.standard_normal((4, 4)))
    x_plane = step(op, state, x, residual, None, cfg)[2][0]
    prev_alpha = dual_pairing(u_prev, x_plane) - 5.0
    prev = Stripe(u_prev, prev_alpha, 1e-6)
    stripe, _, (x_next, t) = step(op, state, x, residual, prev, cfg)
    # a two-plane correction onto the violated upper bound of prev (x_plane
    # sits far above it)
    assert len(t) == 2
    assert dual_pairing(u_prev, x_next) == pytest.approx(
        prev.alpha + prev.xi, abs=1e-7)
    truth = GridFunction.from_interior(rng.standard_normal((4, 4)))
    cosine = TruthMonitor(op, truth, cfg)(0, state, x, stripe, prev)['direction_cosine']
    assert 0.0 <= cosine <= 1.0
    # oracle: metric projection of x onto the two active planes
    planes = [(stripe.u_star, stripe.alpha + stripe.xi),
              (prev.u_star, prev.alpha + prev.xi)]
    gram = np.array([[dual_pairing(u, v) for v, _ in planes]
                     for u, _ in planes])
    gaps = np.array([dual_pairing(u, x) - a for u, a in planes])
    coeffs = np.linalg.solve(gram, gaps)
    oracle = x.values - coeffs[0] * planes[0][0].values - coeffs[1] * planes[1][0].values
    np.testing.assert_allclose(x_next.values, oracle, rtol=1e-7, atol=1e-9)


def test_run_fails_when_the_iterate_is_not_above_its_stripe(monkeypatch):
    # The stopping rule keeps every unconverged iterate above its stripe;
    # run checks the margin before each projection. Here the second stripe
    # is lifted 0.25 above the iterate.
    inner = sesop_solver.build_stripe
    built = []

    def lifted(op, state, x, residual, cfg):
        stripe = inner(op, state, x, residual, cfg)
        if built:
            top = dual_pairing(stripe.u_star, x)
            stripe = Stripe(stripe.u_star, top - stripe.xi + 0.25, stripe.xi)
        built.append((stripe, x))
        return stripe

    rng = np.random.default_rng(53)
    n = 3
    op = LinearStub(well_conditioned_matrix(rng, n * n, 0.3), GridFunction.zeros(n))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    x0 = truth + GridFunction.full(n, 0.5)
    cfg = hilbert_config(method='B')
    y = op.linearize(truth).u
    first = run(op, y, x0, cfg).records[0]
    monkeypatch.setattr(sesop_solver, 'build_stripe', lifted)
    with pytest.raises(SolverFailure) as info:
        run(op, y, x0, cfg)
    assert len(built) == 2
    stripe, x = built[-1]
    margin = (dual_pairing(stripe.u_star, x)
              - (stripe.alpha + stripe.xi))
    assert margin < 0.0
    assert 'iterate is not strictly above its stripe (margin {:.3g})'.format(
        margin) in str(info.value)
    assert isinstance(info.value.__cause__, bregman_geometry.GeometryError)
    assert info.value.iterate is x
    assert [dataclasses.replace(rec, wall_time=0.0) for rec in info.value.records] == [
        dataclasses.replace(first, wall_time=0.0)]


def test_bare_core_needs_only_linearize_and_adjoint():
    # Without a ground truth the method runs on linearize and adjoint alone,
    # takes the same steps as with the diagnostics, and fills none of them.
    class BareStub:
        def __init__(self, full):
            self.linearize = full.linearize
            self.adjoint = full.adjoint

    rng = np.random.default_rng(51)
    n = 4
    full = LinearStub(well_conditioned_matrix(rng, n * n, 0.3), GridFunction.zeros(n))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    x0 = truth + GridFunction.full(n, 0.5)
    cfg = hilbert_config(residual_tol=1e-6, max_outer=400, method='B',
                         cone_constant=0.01)
    y = full.linearize(truth).u
    monitored = monitored_run(full, y, x0, cfg, truth)
    bare = run(BareStub(full), y, x0, cfg)
    assert bare.stop_reason == StopReason.RESIDUAL_TOLERANCE
    assert bare.n_star == monitored.n_star
    assert bare.iterate == monitored.iterate
    assert [rec.t_params for rec in bare.records] == [
        rec.t_params for rec in monitored.records]
    # The step certificate is part of the method, not of the diagnostics.
    assert [rec.step_distance for rec in bare.records] == [
        rec.step_distance for rec in monitored.records]
    assert all(rec.step_distance > 0.0 for rec in bare.records[:-1])
    assert any(rec.step_class == StepClass.TWO_PLANE_CORRECTION for rec in bare.records)
    diagnostics = ('rel_error', 'bregman_to_truth', 'truth_inside', 'cone_ratio',
                   'direction_cosine')
    assert all(getattr(rec, name) is None
               for rec in bare.records for name in diagnostics)


def test_run_starts_each_linearization_from_the_previous_state():
    class RecordingStub(LinearStub):
        def __init__(self, matrix, offset):
            super().__init__(matrix, offset)
            self.calls = []

        def linearize(self, x, start=None):
            state = super().linearize(x)
            self.calls.append((start, state))
            return state

    rng = np.random.default_rng(52)
    n = 3
    op = RecordingStub(well_conditioned_matrix(rng, n * n, 0.3), GridFunction.zeros(n))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    y = op.linearize(truth).u
    op.calls.clear()  # only the calls of the run
    result = run(op, y, truth + GridFunction.full(n, 0.5),
                 hilbert_config(residual_tol=1e-6, max_outer=400, method='B'))
    starts = [start for start, _ in op.calls]
    assert len(starts) == result.n_star + 1 > 2
    assert starts[0] is None
    assert all(start is previous for start, (_, previous) in zip(starts[1:], op.calls))


def test_run_stops_immediately_at_solution():
    n = 4
    op = identity_stub(n)
    truth = GridFunction.full(n, 2.0)
    result = monitored_run(op, op.linearize(truth).u, truth, hilbert_config(), truth)
    assert result.stop_reason == StopReason.RESIDUAL_TOLERANCE
    assert result.n_star == 0
    assert len(result.records) == 1
    assert result.records[0].rel_error == 0.0
    assert result.records[0].step_class is None
    assert result.iterate == truth


def test_run_discrepancy_principle_series():
    rng = np.random.default_rng(45)
    n = 4
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    op = identity_stub(n)
    space = SpaceSpec(2.0, 2.0)
    noise = GridFunction.from_interior(rng.standard_normal((n, n)))
    delta = 1e-3
    noise = noise * (delta / weighted_norm(noise, space))
    y = op.linearize(truth).u + noise
    cfg = hilbert_config(delta=delta, cone_constant=0.01,
                         tau_factor=1.1, method='A')
    x0 = truth + GridFunction.full(n, 0.8)
    result = monitored_run(op, y, x0, cfg, truth)
    assert result.stop_reason == StopReason.DISCREPANCY
    threshold = cfg.stop_threshold
    assert result.records[-1].residual_norm <= threshold
    assert all(rec.residual_norm > threshold for rec in result.records[:-1])
    assert result.n_star == result.records[-1].n
    # noise below the stripe width keeps the truth inside every stripe
    assert all(rec.truth_inside for rec in result.records[:-1])
    assert all(rec.above_margin > 0.0 for rec in result.records[:-1])


def well_conditioned_matrix(rng, size, amplitude):
    bump = rng.standard_normal((size, size))
    return np.eye(size) + amplitude * bump / np.linalg.norm(bump, 2)


def test_run_two_direction_converges_no_slower():
    rng = np.random.default_rng(46)
    n = 4
    matrix = well_conditioned_matrix(rng, n * n, 0.3)
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    op = LinearStub(matrix, GridFunction.zeros(n))
    y = op.linearize(truth).u
    x0 = truth + GridFunction.full(n, 0.5)
    single = run(op, y, x0, hilbert_config(residual_tol=1e-6, max_outer=400))
    double = run(op, y, x0, hilbert_config(residual_tol=1e-6, max_outer=400,
                                           method='B'))
    assert single.stop_reason == StopReason.RESIDUAL_TOLERANCE
    assert double.stop_reason == StopReason.RESIDUAL_TOLERANCE
    assert double.n_star <= single.n_star
    assert any(rec.step_class == StepClass.TWO_PLANE_CORRECTION
               for rec in double.records)


def test_every_projection_goes_through_project_intersection(monkeypatch):
    # Stage one of each step projects onto one plane, a two-plane correction
    # adds one projection onto two, and both run through the one routine.
    calls = []
    inner = bregman_geometry.project_intersection

    def counting(x, planes, space, t_init=None):
        calls.append(len(planes))
        return inner(x, planes, space, t_init)

    monkeypatch.setattr(bregman_geometry, 'project_intersection', counting)
    rng = np.random.default_rng(46)
    n = 4
    matrix = well_conditioned_matrix(rng, n * n, 0.3)
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    op = LinearStub(matrix, GridFunction.zeros(n))
    result = run(op, op.linearize(truth).u, truth + GridFunction.full(n, 0.5),
                 hilbert_config(residual_tol=1e-6, max_outer=400, method='B'))
    steps = [rec.step_class for rec in result.records if rec.step_class is not None]
    assert calls.count(1) == len(steps)
    assert calls.count(2) == steps.count(StepClass.TWO_PLANE_CORRECTION) > 0


def test_run_is_deterministic():
    rng = np.random.default_rng(47)
    n = 4
    matrix = well_conditioned_matrix(rng, n * n, 0.2)
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    op = LinearStub(matrix, GridFunction.zeros(n))
    y = op.linearize(truth).u
    x0 = GridFunction.zeros(n)
    cfg = hilbert_config(residual_tol=1e-8, method='B', max_outer=300)
    first = monitored_run(op, y, x0, cfg, truth)
    second = monitored_run(op, y, x0, cfg, truth)
    assert first.n_star == second.n_star
    assert first.iterate == second.iterate
    for a, b in zip(first.records, second.records):
        assert a.residual_norm == b.residual_norm
        assert a.t_params == b.t_params
        assert a.rel_error == b.rel_error


def test_run_budget_exhaustion_is_flagged_not_raised():
    rng = np.random.default_rng(48)
    n = 3
    matrix = np.eye(n * n) + 0.2 * rng.standard_normal((n * n, n * n))
    op = LinearStub(matrix, GridFunction.zeros(n))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    result = run(op, op.linearize(truth).u, GridFunction.zeros(n),
                 hilbert_config(residual_tol=1e-14, max_outer=3))
    assert result.stop_reason == StopReason.NOT_CONVERGED
    assert result.n_star == 3
    assert 'budget' in result.detail
    assert len(result.records) == 4


def test_run_wraps_operator_failure_with_partial_records():
    class FailingStub(LinearStub):
        def __init__(self, matrix, offset, fail_at):
            super().__init__(matrix, offset)
            self.calls = 0
            self.fail_at = fail_at

        def linearize(self, x, start=None):
            self.calls += 1
            if self.calls > self.fail_at:
                raise LinearSolveError('synthetic breakdown', parameter=x)
            return super().linearize(x, start)

    rng = np.random.default_rng(49)
    n = 3
    op = FailingStub(np.eye(n * n) + 0.1 * rng.standard_normal((n * n, n * n)),
                     GridFunction.zeros(n), fail_at=2)
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    y = op.linearize(truth).u
    op.calls = 0  # the run's third linearization fails
    with pytest.raises(SolverFailure) as info:
        run(op, y, GridFunction.zeros(n), hilbert_config(residual_tol=1e-13))
    assert len(info.value.records) == 2
    assert info.value.iterate is not None
    assert isinstance(info.value.__cause__, LinearSolveError)


def test_a_monitor_failure_ends_the_run_with_the_records_so_far():
    def failing(n, state, x, stripe=None, previous=None):
        if n == 2:
            raise LinearSolveError('synthetic monitor breakdown', parameter=x)
        return {}

    rng = np.random.default_rng(49)
    n = 3
    op = LinearStub(np.eye(n * n) + 0.1 * rng.standard_normal((n * n, n * n)),
                    GridFunction.zeros(n))
    truth = GridFunction.from_interior(rng.standard_normal((n, n)))
    with pytest.raises(SolverFailure) as info:
        run(op, op.linearize(truth).u, GridFunction.zeros(n), hilbert_config(residual_tol=1e-13),
            monitors=[failing])
    assert [rec.n for rec in info.value.records] == [0, 1]
    assert info.value.iterate is not None
    assert isinstance(info.value.__cause__, LinearSolveError)


def test_run_stagnation_guard():
    class FrozenStub(LinearStub):
        """Constant forward map with an enormous reported derivative."""

        def __init__(self, n):
            super().__init__(np.eye(n * n), GridFunction.full(n, 1.0))

        def linearize(self, x, start=None):
            return dataclasses.make_dataclass('State', ['u', 'x'])(
                u=self.offset, x=x)

        def adjoint(self, state, w):
            return 1e16 * w

    n = 3
    op = FrozenStub(n)
    y = GridFunction.zeros(n)
    result = run(op, y, GridFunction.full(n, 1.0),
                 hilbert_config(residual_tol=1e-6, max_outer=50))
    assert result.stop_reason == StopReason.STAGNATED
    assert 'stalled' in result.detail


def test_a_null_step_at_zero_counts_as_stagnant(monkeypatch):
    # At x = 0 the stagnation test compares a step of norm 0 with
    # STAGNATION_TOL * 0; a step that does not move must still count, or the
    # run spins to its budget.
    monkeypatch.setattr(sesop_solver, 'project_two_stage',
                        lambda x, stripe, previous, space: (x, (0.0,)))
    n = 3
    op = identity_stub(n)
    result = run(op, op.linearize(GridFunction.full(n, 1.0)).u, GridFunction.zeros(n),
                 hilbert_config(max_outer=20))
    assert result.stop_reason == StopReason.STAGNATED
    assert result.n_star == 3 and len(result.records) == 3


def test_cone_warning_formats_an_undefined_ratio(caplog):
    # Started at the truth with data the truth does not explain, F(x) =
    # F(truth): the truth lies above the stripe and the cone ratio has a
    # zero denominator.
    n = 3
    truth = GridFunction.full(n, 1.0)
    with caplog.at_level(logging.WARNING, logger='resesop.sesop_solver'):
        result = monitored_run(identity_stub(n), GridFunction.zeros(n), truth,
                               hilbert_config(max_outer=1), truth)
    assert result.records[0].truth_inside is False
    assert result.records[0].cone_ratio is None
    messages = [rec.getMessage() for rec in caplog.records]
    assert any('tangential-cone ratio undefined' in m for m in messages)


def test_cone_ratio_starts_its_derivative_solve_from_the_misfit():
    # F(x) - F(truth) is F'(x)(x - truth) up to second order: the monitor
    # hands it to the derivative solve as the start.
    class StartRecordingStub(LinearStub):
        def derivative(self, state, direction, start=None):
            starts.append((state.u - self.linearize(truth).u, start))
            return super().derivative(state, direction, start)

    starts = []
    n = 3
    truth = GridFunction.full(n, 1.0)
    op = StartRecordingStub(np.eye(n * n), GridFunction.zeros(n))
    result = monitored_run(op, GridFunction.zeros(n), GridFunction.full(n, 2.0),
                           hilbert_config(max_outer=1), truth)
    assert result.records[0].truth_inside is False
    assert len(starts) == 1
    misfit, start = starts[0]
    assert start == misfit and np.any(misfit.values)


def test_run_on_small_elliptic_instance():
    # End-to-end smoke test on the real operator with self-generated data.
    n = 8
    coords = np.linspace(0.0, 1.0, n + 2)
    xg, yg = np.meshgrid(coords, coords, indexing='ij')
    truth = GridFunction(2.0 + xg * (1.0 - xg) * np.sin(np.pi * yg))
    f = GridFunction.full(n, 5.0)
    g = GridFunction.full(n, 1.0)
    op = EllipticOperator(f, g)
    y = op.linearize(truth).u
    x0 = GridFunction.full(n, 2.0)
    cfg = SolverConfig(r=1.5, s=5.0, p_gauge=1.5, cone_constant=0.01,
                       residual_tol=1e-6, max_outer=200, method='B')
    result = monitored_run(op, y, x0, cfg, truth)
    assert result.stop_reason == StopReason.RESIDUAL_TOLERANCE
    assert result.records[-1].rel_error < result.records[0].rel_error
    assert all(rec.above_margin > 0.0 for rec in result.records[:-1])
    distances = [rec.bregman_to_truth for rec in result.records]
    assert all(later <= earlier + 1e-9 * (1.0 + earlier)
               for earlier, later in zip(distances, distances[1:]))


def test_a_zero_truth_records_no_relative_error():
    # ||x_true|| = 0 leaves the relative error undefined: it is recorded as
    # None, and the run keeps its records and the bare run's stop.
    truth = synth_truth(8)
    op = EllipticOperator(truth.f, truth.g)
    zero = GridFunction.zeros(8)
    y = op.linearize(zero).u
    cfg = SolverConfig(method='B')
    bare = run(op, y, truth.c0, cfg)
    monitored = monitored_run(op, y, truth.c0, cfg, zero)
    assert (monitored.stop_reason, monitored.n_star) == (
        bare.stop_reason, bare.n_star) == (StopReason.RESIDUAL_TOLERANCE, 13)
    assert monitored.iterate == bare.iterate
    assert all(rec.rel_error is None and rec.bregman_to_truth is not None
               for rec in monitored.records)


@pytest.mark.parametrize('r', [1.1, 1.2, 1.3, 1.5, 2.0, 3.0])
@pytest.mark.parametrize('method', ['A', 'B'])
def test_a_zero_start_reaches_the_residual_tolerance(method, r):
    # At x = 0, J(x) = 0, so the first projection's dual objective is a pure
    # power whose Hessian vanishes at t = 0; at r <= 1.2 a gradient step from
    # there could not reach its minimizer, and the run failed at step 0.
    truth = synth_truth(40)
    op = EllipticOperator(truth.f, truth.g)
    result = run(op, truth.u, GridFunction.zeros(40), SolverConfig(method=method, r=r))
    assert result.stop_reason == StopReason.RESIDUAL_TOLERANCE


def suite40_instance(method, delta):
    """Operator, data, start and truth of a seed-7 suite40 configuration,
    built as `run_experiment` builds them."""
    cfg = ExperimentConfig(method=method, delta=delta, seed=7, n_recon=40, n_data=50)
    y = restrict(add_noise(synth_truth(cfg.n_data).u, cfg.delta, cfg.s, cfg.seed),
                 cfg.n_recon)
    coarse = synth_truth(cfg.n_recon)
    return EllipticOperator(coarse.f, coarse.g), y, coarse.c0, coarse.c, cfg


@pytest.mark.parametrize('delta', [0.0, 5e-4])
@pytest.mark.parametrize('method', ['A', 'B'])
def test_truth_monitor_leaves_the_method_unchanged_on_the_reference_operator(method, delta):
    # The cone-ratio solve shares the operator's CG buffers and the
    # iterates' memoized norms; the method's fields must not notice.
    op, y, x0, truth, cfg = suite40_instance(method, delta)
    bare = run(op, y, x0, cfg)
    op, y, x0, truth, cfg = suite40_instance(method, delta)
    monitored = monitored_run(op, y, x0, cfg, truth)
    assert bare.n_star == monitored.n_star
    assert bare.stop_reason == monitored.stop_reason
    assert bare.iterate == monitored.iterate
    for name in ('residual_norm', 't_params', 'stripe_widths', 'step_class',
                 'above_margin', 'step_distance'):
        assert [getattr(rec, name) for rec in bare.records] == [
            getattr(rec, name) for rec in monitored.records], name
    assert all(rec.rel_error is None for rec in bare.records)
    assert all(rec.rel_error is not None for rec in monitored.records)


class ProtocolStub:
    """The operator protocol and nothing more: `linearize`, `derivative` and
    `adjoint`, delegated to a reference operator. It is not callable."""

    def __init__(self, op):
        self.op = op

    def linearize(self, x, start=None):
        return self.op.linearize(x, start)

    def derivative(self, state, direction, start=None):
        return self.op.derivative(state, direction, start)

    def adjoint(self, state, w):
        return self.op.adjoint(state, w)


def test_run_and_the_truth_monitor_need_only_the_three_method_protocol():
    # F(truth) of the cone ratio comes from `linearize`, as every F does.
    op, y, x0, truth, cfg = suite40_instance('B', 0.0)
    reference = monitored_run(op, y, x0, cfg, truth)
    op, y, x0, truth, cfg = suite40_instance('B', 0.0)
    stub = ProtocolStub(op)
    assert not callable(stub)
    result = monitored_run(stub, y, x0, cfg, truth)
    assert [dataclasses.replace(rec, wall_time=0.0) for rec in result.records] == [
        dataclasses.replace(rec, wall_time=0.0) for rec in reference.records]
    assert result.iterate == reference.iterate
    assert any(rec.cone_ratio is not None for rec in result.records)


def test_a_truth_free_monitor_attaches_without_changes_to_run():
    # The cosine between the two directions of a two-plane step needs no
    # truth; a monitor computes it from the stripes run hands over.
    calls = []

    def cosine_monitor(n, state, x, stripe=None, previous=None):
        calls.append((n, state, x, stripe, previous))
        if previous is None:
            return {}
        space = cfg.parameter_space
        lifted = inverse_duality_map(previous.u_star, space)
        denom = weighted_norm(stripe.u_star, space.dual()) * weighted_norm(lifted, space)
        return {'direction_cosine': abs(dual_pairing(stripe.u_star, lifted)) / denom}

    op, y, x0, truth, cfg = suite40_instance('B', 0.0)
    result = run(op, y, x0, cfg, monitors=[cosine_monitor])
    records = result.records
    assert [n for n, *_ in calls] == [rec.n for rec in records] == list(range(len(records)))
    assert [stripe is None for *_, stripe, _ in calls] == [False] * (len(calls) - 1) + [True]
    two_plane = [rec.step_class == StepClass.TWO_PLANE_CORRECTION for rec in records]
    assert [previous is not None for *_, previous in calls] == two_plane
    assert any(two_plane)
    # Each call sees the state of its own iterate, so a monitor that keeps
    # the last state sees both ends of the step between them.
    assert all(state.c is x for _, state, x, _, _ in calls)
    assert len({id(state) for _, state, *_ in calls}) == len(calls)
    assert all((rec.direction_cosine is not None) == step for rec, step in zip(records, two_plane))
    op, y, x0, truth, cfg = suite40_instance('B', 0.0)
    monitored = monitored_run(op, y, x0, cfg, truth)
    assert [rec.direction_cosine for rec in records] == [
        rec.direction_cosine for rec in monitored.records]
    assert all(rec.rel_error is None for rec in records)


def test_two_direction_run_with_singular_dual_weights():
    # At r = 3 the dual exponent r* = 1.5 makes the Hessian weight
    # |g|^(r*-2) of the projection problem singular where g = 0; the first
    # two-plane projection of this noise draw has an entry of g near 0.
    report = run_experiment(ExperimentConfig(method='B', delta=5e-4, r=3.0, seed=2400880))
    assert report.stop_reason == StopReason.DISCREPANCY
    assert report.final_rel_error <= 0.15
