"""Span arithmetic and wrapper installation of the benchmark's trace."""

import itertools

import pytest

import resesop
from perfbench import run, tracing


def nested_spans():
    # root [0, 10] holds a [1, 4], which holds b [2, 3], and c [5, 9].
    return [
        tracing.Span('experiment_cli.run_experiment', 0.0, 10.0),
        tracing.Span('sesop_solver.run', 1.0, 4.0, parent=0),
        tracing.Span('elliptic_operator.solve', 2.0, 3.0, parent=1),
        tracing.Span('experiment_cli.write_json', 5.0, 9.0, parent=0),
    ]


def test_self_time_is_span_minus_direct_children():
    assert tracing.self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_and_coverage():
    spans = nested_spans()
    own = tracing.self_times(spans)
    assert tracing.layer_self_times(spans, own) == {
        'experiment_cli': 7.0, 'sesop_solver': 2.0, 'elliptic_operator': 1.0}
    metrics = tracing.pass_metrics(spans, own, 0, len(spans))
    assert metrics['trace.coverage'] == pytest.approx(0.7)
    assert metrics['sesop_solver.run_s'] == 3.0
    assert metrics['sesop_solver.self_s'] == 2.0
    assert metrics['elliptic_operator.solves'] == 1
    assert metrics['experiment_cli.report_write_s'] == 4.0


def test_tracer_records_parents_and_rejects_crossed_spans():
    clock = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(clock)))
    tracer.op = 'op'
    outer = tracer.begin('a.outer')
    inner = tracer.begin('a.inner')
    tracer.end(inner)
    tracer.end(outer)
    assert [(s.name, s.start, s.end, s.parent, s.op) for s in tracer.spans] == [
        ('a.outer', 0.0, 3.0, None, 'op'), ('a.inner', 1.0, 2.0, 0, 'op')]
    first = tracer.begin('a.first')
    tracer.begin('a.second')
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_inverse_duality_evals_count_only_inside_projections():
    spans = [
        tracing.Span('bregman_geometry.project_hyperplane', 0.0, 4.0),
        tracing.Span('lp_spaces.inverse_duality_map', 1.0, 2.0, parent=0),
        tracing.Span('sesop_solver.run', 5.0, 9.0),
        tracing.Span('lp_spaces.inverse_duality_map', 6.0, 7.0, parent=2),
    ]
    metrics = tracing.pass_metrics(spans, tracing.self_times(spans), 0, len(spans))
    assert metrics['bregman_geometry.inverse_duality_evals'] == 1
    assert metrics['bregman_geometry.evals_per_projection'] == 1.0
    assert metrics['lp_spaces.calls'] == 2


def target_objects():
    objects = {}
    for module, path, _ in tracing.CALL_TARGETS + (
            tracing.FACTORIZE_TARGET, tracing.OPERATOR_TARGET + (None,)):
        owner = getattr(resesop, module)
        *parents, attr = path.split('.')
        for name in parents:
            owner = getattr(owner, name)
        objects[(module, path)] = getattr(owner, attr)
    return objects


def test_untraced_runs_install_no_wrappers(monkeypatch, tmp_path):
    originals = target_objects()
    seen = []
    real_run_experiment = resesop.run_experiment

    def spy(cfg):
        seen.append(target_objects() == originals)
        return real_run_experiment(cfg)

    monkeypatch.setattr(resesop, 'run_experiment', spy)
    monkeypatch.setattr(tracing.Instrumentation, 'install',
                        lambda self: pytest.fail('untraced run installed wrappers'))
    monkeypatch.setattr(run, 'SETUP_PROBES', 1)
    monkeypatch.setattr(run, 'SCRATCH', tmp_path)
    assert run.main(['--workload', 'suite40', '--seed', '7', '--seconds', '0.01',
                     '--trace', '0']) == 0
    assert seen and all(seen)
    assert target_objects() == originals


def test_traced_pass_sees_seed_counts_and_restores_names(tmp_path):
    originals = target_objects()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        assert instrumentation.missing == []
        assert all(target_objects()[key] is not value for key, value in originals.items())
        ops = run.run_pass(resesop, 'suite40', 7, 0, str(tmp_path), tracer)
    finally:
        instrumentation.remove()
    assert target_objects() == originals
    checks = run.self_check(tracer, [(0, len(tracer.spans), ops)])
    assert [(label, facts, solves) for label, facts, solves, _, _ in checks] == [
        ('A r=1.5 n40 exact', 27, 103), ('B r=1.5 n40 exact', 11, 60)]


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, 'CALL_TARGETS', (('elliptic_operator', 'no_such_name', 'x.y'),))
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    instrumentation.install()
    instrumentation.remove()
    assert instrumentation.missing == ['resesop.elliptic_operator.no_such_name']
