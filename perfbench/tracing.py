"""Spans recorded around the public names of the resesop modules.

The package is never edited for tracing. A traced pass rebinds public names
in the module that looks them up (for example ``splu`` inside
``resesop.elliptic_operator``) to wrappers that record one span per call,
and restores the originals afterwards. Spans stay in memory until the run
ends. A span is named ``<layer>.<operation>``, where the layer is the module
that does the work, so per-layer self time is the sum over span names that
share a prefix.
"""

import functools
import importlib
import inspect
import time

# Wrapped names: (module that looks the name up, attribute path, span name).
# Hyperplane projections are reached both from the solver and from
# bregman_geometry.project_stripe, so both lookups are wrapped; a call never
# passes through two wrappers because each forwards to the original.
CALL_TARGETS = (
    ('elliptic_operator', 'assemble', 'elliptic_operator.assemble'),
    ('sesop_solver', 'project_hyperplane', 'bregman_geometry.project_hyperplane'),
    ('bregman_geometry', 'project_hyperplane', 'bregman_geometry.project_hyperplane'),
    ('sesop_solver', 'project_intersection', 'bregman_geometry.project_intersection'),
    ('sesop_solver', 'project_stripe', 'bregman_geometry.project_stripe'),
    ('sesop_solver', 'classify', 'bregman_geometry.classify'),
    ('bregman_geometry', 'duality_map', 'lp_spaces.duality_map'),
    ('sesop_solver', 'duality_map', 'lp_spaces.duality_map'),
    ('bregman_geometry', 'inverse_duality_map', 'lp_spaces.inverse_duality_map'),
    ('sesop_solver', 'inverse_duality_map', 'lp_spaces.inverse_duality_map'),
    ('sesop_solver', 'bregman_distance', 'lp_spaces.bregman_distance'),
    ('experiment_cli', 'run', 'sesop_solver.run'),
    ('experiment_cli', 'synth_truth', 'experiment_cli.synth_truth'),
    ('experiment_cli', 'add_noise', 'experiment_cli.add_noise'),
    ('experiment_cli', 'restrict', 'experiment_cli.restrict'),
    ('experiment_cli', 'ExperimentReport.write_json', 'experiment_cli.write_json'),
    ('experiment_cli', 'ExperimentReport.write_csv', 'experiment_cli.write_csv'),
)
# splu returns a factorization whose .solve calls become spans as well.
FACTORIZE_TARGET = ('elliptic_operator', 'splu', 'elliptic_operator.factorize')
LU_METHODS = {'solve': 'elliptic_operator.solve'}
# The operator the pipeline builds is handed out behind a timed proxy. Its
# __call__ only evaluates F at the ground truth (the cone-ratio diagnostic).
OPERATOR_TARGET = ('experiment_cli', 'EllipticOperator')
OPERATOR_METHODS = {
    '__call__': 'elliptic_operator.forward',
    'linearize': 'elliptic_operator.linearize',
    'derivative': 'elliptic_operator.derivative',
    'adjoint': 'elliptic_operator.adjoint',
    'norm_estimate': 'elliptic_operator.norm_estimate',
}

ROOT = 'experiment_cli.run_experiment'
DIAGNOSTICS = ('elliptic_operator.norm_estimate', 'elliptic_operator.derivative',
               'elliptic_operator.forward', 'lp_spaces.bregman_distance')
PREPARE = ('experiment_cli.synth_truth', 'experiment_cli.add_noise',
           'experiment_cli.restrict')
REPORT_WRITES = ('experiment_cli.write_json', 'experiment_cli.write_csv')
PROJECTIONS = ('bregman_geometry.project_hyperplane',
               'bregman_geometry.project_intersection')


class Span:
    """One call: name, start and end on the perf_counter clock, the index of
    the enclosing span (None at the top) and the operation it belongs to."""

    __slots__ = ('name', 'start', 'end', 'parent', 'op')

    def __init__(self, name, start, end=None, parent=None, op=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self):
        return self.end - self.start

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    """In-memory span recorder for one thread.

    ``op`` is the identifier shared by the spans of one run_experiment call;
    the caller sets it before each call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self._open.append(index)
        return index

    def end(self, index):
        if self._open.pop() != index:
            raise RuntimeError('span {} closed out of order'.format(
                self.spans[index].name))
        self.spans[index].end = self.clock()


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the part of the span they cover.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def timed(tracer, name, fn):
    """fn wrapped so that each call is a span called name."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


class TimedProxy:
    """Forwards attribute access to target; the listed methods are spans."""

    def __init__(self, target, methods, tracer):
        self._target = target
        for attr, name in methods.items():
            if attr != '__call__':
                setattr(self, attr, timed(tracer, name, getattr(target, attr)))
        if '__call__' in methods:
            self._call = timed(tracer, methods['__call__'], target)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Instrumentation:
    """Installs the timed wrappers into the resesop modules and removes them.

    A target that no longer exists is reported in ``missing`` and skipped:
    its metrics then read zero, and the self-check in the run fails.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._saved = []

    def _rebind(self, module, path, make):
        *parents, attr = path.split('.')
        try:
            owner = importlib.import_module('resesop.' + module)
            for name in parents:
                owner = getattr(owner, name)
            current = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append('resesop.{}.{}'.format(module, path))
            return
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, make(current))

    def install(self):
        if self._saved:
            raise RuntimeError('instrumentation is already installed')
        tracer = self.tracer
        self.missing = []
        for module, path, name in CALL_TARGETS:
            self._rebind(module, path, lambda fn, name=name: timed(tracer, name, fn))

        def factorize(splu):
            timed_splu = timed(tracer, FACTORIZE_TARGET[2], splu)
            return functools.wraps(splu)(
                lambda *a, **k: TimedProxy(timed_splu(*a, **k), LU_METHODS, tracer))
        self._rebind(*FACTORIZE_TARGET[:2], factorize)

        def operator(cls):
            return lambda *a, **k: TimedProxy(cls(*a, **k), OPERATOR_METHODS, tracer)
        self._rebind(*OPERATOR_TARGET, operator)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def pass_metrics(spans, own, lo, hi):
    """Per-layer metrics of the pass whose spans are spans[lo:hi].

    own holds the self time of every span in spans.
    """
    count = {}
    total = {}
    self_total = {}
    evals = 0
    for k in range(lo, hi):
        span = spans[k]
        count[span.name] = count.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own[k]
        # Inverse-duality evaluations made by the projections themselves.
        if (span.name == 'lp_spaces.inverse_duality_map' and span.parent is not None
                and spans[span.parent].name in PROJECTIONS):
            evals += 1
    factorizations = count.get('elliptic_operator.factorize', 0)
    solves = count.get('elliptic_operator.solve', 0)
    projections = sum(count.get(name, 0) for name in PROJECTIONS)
    root_time = total.get(ROOT, 0.0)

    def seconds(*names):
        return sum(total.get(name, 0.0) for name in names)

    return {
        'elliptic_operator.factorize_s': seconds('elliptic_operator.factorize'),
        'elliptic_operator.factorizations': factorizations,
        'elliptic_operator.assemble_s': seconds('elliptic_operator.assemble'),
        'elliptic_operator.assemble_calls': count.get('elliptic_operator.assemble', 0),
        'elliptic_operator.solve_s': seconds('elliptic_operator.solve'),
        'elliptic_operator.solves': solves,
        'elliptic_operator.solves_per_factorization':
            solves / factorizations if factorizations else 0.0,
        'elliptic_operator.linearize_s': seconds('elliptic_operator.linearize'),
        'elliptic_operator.adjoint_s': seconds('elliptic_operator.adjoint'),
        'elliptic_operator.derivative_s': seconds('elliptic_operator.derivative'),
        'elliptic_operator.norm_estimate_s': seconds('elliptic_operator.norm_estimate'),
        'bregman_geometry.project_hyperplane_s':
            seconds('bregman_geometry.project_hyperplane'),
        'bregman_geometry.project_hyperplane_calls':
            count.get('bregman_geometry.project_hyperplane', 0),
        'bregman_geometry.project_intersection_s':
            seconds('bregman_geometry.project_intersection'),
        'bregman_geometry.project_intersection_calls':
            count.get('bregman_geometry.project_intersection', 0),
        'bregman_geometry.projections': projections,
        'bregman_geometry.inverse_duality_evals': evals,
        'bregman_geometry.evals_per_projection':
            evals / projections if projections else 0.0,
        'lp_spaces.duality_map_s': seconds('lp_spaces.duality_map'),
        'lp_spaces.inverse_duality_map_s': seconds('lp_spaces.inverse_duality_map'),
        'lp_spaces.calls': (count.get('lp_spaces.duality_map', 0)
                            + count.get('lp_spaces.inverse_duality_map', 0)),
        'sesop_solver.run_s': seconds('sesop_solver.run'),
        'sesop_solver.self_s': self_total.get('sesop_solver.run', 0.0),
        'sesop_solver.diagnostics_s': seconds(*DIAGNOSTICS),
        'experiment_cli.prepare_s': seconds(*PREPARE),
        'experiment_cli.report_write_s': seconds(*REPORT_WRITES),
        'trace.coverage': (1.0 - self_total.get(ROOT, 0.0) / root_time
                           if root_time else 0.0),
    }


def layer_self_times(spans, own):
    """Total self time per layer, the prefix of the span name."""
    layers = {}
    for span, self_time in zip(spans, own):
        layer = span.name.split('.', 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time
    return layers


def op_counts(spans, names):
    """{op: {name: calls}} for the listed span names."""
    counts = {}
    for span in spans:
        if span.name in names:
            per_op = counts.setdefault(span.op, {})
            per_op[span.name] = per_op.get(span.name, 0) + 1
    return counts
