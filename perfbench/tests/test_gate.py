"""Output gate, failure accounting and summary statistics of the benchmark."""

import json
from types import SimpleNamespace

import pytest

from perfbench import run, workloads


class FakeReportClass:
    """Parses any text back to the report it was given."""

    def __init__(self, report):
        self.report = report

    def from_json(self, text):
        return self.report if text == 'ok' else object()


def fake_report(stop='discrepancy', error=0.08, n_star=12, records=2):
    return SimpleNamespace(stop_reason=stop, final_rel_error=error, n_star=n_star,
                           records=tuple(range(records)))


def write_report(tmp_path, text='ok', rows=3):
    json_path, csv_path = workloads.report_paths(str(tmp_path), 0)
    with open(json_path, 'w') as handle:
        handle.write(text)
    with open(csv_path, 'w') as handle:
        handle.write('row\n' * rows)
    return json_path, csv_path


def test_gate_accepts_converged_run_with_readable_report(tmp_path):
    report = fake_report()
    assert workloads.gate(report, FakeReportClass(report), write_report(tmp_path)) == []


@pytest.mark.parametrize('stop, error, count', [
    ('failed', 0.08, 1),
    ('not_converged', 0.08, 1),
    ('stagnated', 0.2, 2),
    ('residual_tolerance', 0.151, 1),
    ('failed', None, 2),
])
def test_gate_counts_bad_stops_and_errors(stop, error, count):
    report = fake_report(stop, error)
    assert len(workloads.gate(report, FakeReportClass(report))) == count


def test_gate_rejects_reports_that_do_not_read_back(tmp_path):
    report = fake_report()
    assert workloads.gate(report, FakeReportClass(report),
                          write_report(tmp_path, text='changed')) == [
        'JSON report does not round-trip']
    assert workloads.gate(report, FakeReportClass(report),
                          write_report(tmp_path, rows=2)) == [
        'CSV report has 2 rows for 2 records']
    missing = (str(tmp_path / 'none.json'), str(tmp_path / 'none.csv'))
    assert workloads.gate(report, FakeReportClass(report), missing)[0].startswith(
        'report unreadable')


def make_op(label, report, seconds=1.0):
    return run.Op((0, label), label, report, seconds,
                  workloads.gate(report, FakeReportClass(report)), 0)


def test_failed_runs_count_against_attempts():
    good = make_op('A', fake_report(n_star=25))
    bad = make_op('B', fake_report(stop='failed', error=0.28, n_star=1))
    passes = [[good, bad], [good, bad]]
    metrics = run.end_to_end(passes, [0.5, 0.7, 0.6])
    assert metrics['success_ratio'] == 0.5
    assert metrics['outer_iters'] == 26
    assert metrics['rel_error_max'] == 0.28
    assert metrics['pass_s'] == 2.0
    assert metrics['iter_ms'] == pytest.approx(2000.0 / 26)
    assert metrics['setup_s'] == 0.6


def test_repeated_inputs_must_repeat_outcomes():
    first = make_op('A', fake_report(n_star=25, error=0.0777))
    same = make_op('A', fake_report(n_star=25, error=0.0777))
    other = make_op('A', fake_report(n_star=25, error=0.0778))
    assert run.determinism_errors([[first], [same]]) == []
    assert len(run.determinism_errors([[first], [other]])) == 1


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(10))) is None
    percentile, value = run.tail(list(range(40)))
    assert percentile == 75.0
    assert sum(sample > value for sample in range(40)) == 10


def test_every_workload_passes_the_seed_through_to_the_noise():
    for workload in workloads.WHY:
        cases = workloads.configs(workload, 7)
        assert cases == workloads.configs(workload, 7)
        noisy = [fields for _, fields, _ in cases if fields['delta']]
        assert all(fields['seed'] % workloads.NOISE_STRIDE == 7 for fields in noisy)
    with pytest.raises(ValueError):
        workloads.configs('nope', 7)


def test_metric_names_match_benchmark_file():
    with open(run.ROOT / 'BENCHMARK.json') as handle:
        bench = json.load(handle)
    assert {m['name']: m['unit'] for m in bench['end_to_end']} == run.END_TO_END_UNITS
    assert {m['name']: m['unit'] for m in bench['per_layer']} == run.PER_LAYER_UNITS
    assert [w['name'] for w in bench['workloads']] == list(workloads.WHY)
