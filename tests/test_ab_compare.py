"""Tests for tools/ab_compare.py: its sign test, its schedule of worker
processes, and one real worker on this repository's tree.

The schedule runs against a stub `run_side`, so it times no tree.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / 'tools' / 'ab_compare.py'
spec = importlib.util.spec_from_file_location('ab_compare', TOOL)
ab_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_compare)


def binomial_two_sided(wins, rounds):
    # P(X <= min) + P(X >= max) for X ~ Binomial(rounds, 1/2), exactly,
    # capped at 1 where the two tails meet in the middle.
    low, high = min(wins, rounds - wins), max(wins, rounds - wins)
    tails = set(range(low + 1)) | set(range(high, rounds + 1))
    return min(Fraction(1), sum(Fraction(math.comb(rounds, k), 2 ** rounds) for k in tails))


@pytest.mark.parametrize('wins, rounds', [(25, 50), (34, 50), (16, 50), (0, 5), (5, 5),
                                          (3, 7), (20, 30), (50, 50)])
def test_sign_test_is_the_exact_two_sided_binomial_p_value(wins, rounds):
    assert ab_compare.sign_test(wins, rounds) == pytest.approx(
        float(binomial_two_sided(wins, rounds)), rel=1e-12)


def test_sign_test_reference_values():
    assert ab_compare.sign_test(25, 50) == 1.0
    assert ab_compare.sign_test(34, 50) == pytest.approx(0.0153, abs=5e-5)
    assert ab_compare.sign_test(0, 5) == 0.0625


def test_each_round_runs_both_sides_once_in_alternating_order():
    # Five rounds: each calls run_side once per side, the parent first in
    # even rounds and the change first in odd ones. The change is faster in
    # every round but round 2, a tie, which goes to the parent.
    log = []

    def stub(tree, workload, seed):
        assert (workload, seed) == ('suite40', 7)
        log.append(tree)
        fast = tree == 'change' and len(log) not in (5, 6)
        return dict(seconds=0.5 if fast else 1.0, n_star=3, digest='d', failed=[])

    summary = ab_compare.compare({'parent': 'parent', 'change': 'change'}, 'suite40', 5, 7,
                                 run_side=stub)
    assert log == ['parent', 'change', 'change', 'parent', 'parent', 'change',
                   'change', 'parent', 'parent', 'change']
    assert (summary['change']['won'], summary['parent']['won']) == (4, 1)
    assert summary['records_equal'] and summary['verdict'] == 'neutral'


def test_a_failing_side_raises():
    def failing(tree, workload, seed):
        if tree == 'change':
            raise RuntimeError('worker exited')
        return dict(seconds=1.0, n_star=1, digest='d', failed=[])

    with pytest.raises(RuntimeError):
        ab_compare.compare({'parent': 'p', 'change': 'change'}, 'suite40', 4, 7,
                           run_side=failing)


def test_a_worker_without_its_tree_raises(tmp_path):
    # An empty directory holds neither resesop nor perfbench; the worker
    # must not fall back to another tree's, and its exit ends the comparison.
    with pytest.raises(RuntimeError, match='exited with'):
        ab_compare.run_side(tmp_path, 'grid160', 7)


def test_a_real_worker_times_perfbench_own_pass_on_this_tree():
    # One fresh worker process on this repository: perfbench.run.run_pass
    # of grid160 at seed 7, with the n* sum and digest that
    # tools/record_digest.py prints.
    reply = ab_compare.run_side(REPO, 'grid160', 7)
    assert reply['n_star'] == 34 and reply['failed'] == []
    assert reply['digest'] == (
        'adad65a33290cf0c9232dd4385e8e67d60091e8ee10cdb3f158250acf7814a92')
    assert reply['seconds'] > 0.0
