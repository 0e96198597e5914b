"""Tests for tools/ab_compare.py: its sign test and its schedule of worker pairs.

The schedule runs against a stub worker, so no tree is timed here.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / 'tools' / 'ab_compare.py'
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


def test_rounds_alternate_and_a_fresh_pair_starts_every_pair_rounds():
    # 25 rounds with pairs of 10: three pairs of workers (10, 10 and 5
    # rounds), each warmed up by one untimed pass per side and closed at the
    # end. The order swaps every round. The change is faster with the first
    # and third pair and slower with the second, which the wins per pair show.
    assert ab_compare.PAIR_ROUNDS == 10
    log, started = [], []

    class Stub:
        def __init__(self, tree):
            started.append(tree)
            self.tree, self.number = tree, len(started)

        def run_pass(self, workload, seed):
            assert (workload, seed) == ('suite40', 7)
            log.append((self.number, self.tree))
            fast = self.tree == 'change' and self.number != 4
            return dict(seconds=0.5 if fast else 1.0, n_star=3, digest='d', failed=[])

        def close(self):
            log.append((self.number, 'closed'))

    trees = {'parent': 'parent', 'change': 'change'}
    summary = ab_compare.compare(trees, 'suite40', 25, 7, start=Stub)
    assert started == ['parent', 'change'] * 3
    expected = []
    for pair, first in enumerate(range(0, 25, 10)):
        order = [(2 * pair + 1, 'parent'), (2 * pair + 2, 'change')]
        expected += order
        for k in range(first, min(first + 10, 25)):
            expected += order if k % 2 == 0 else order[::-1]
        expected += [(number, 'closed') for number, _ in order]
    assert log == expected
    assert summary['change']['won_per_pair'] == [10, 0, 5]
    assert summary['parent']['won_per_pair'] == [0, 10, 0]
    assert (summary['change']['won'], summary['parent']['won']) == (15, 10)
    assert summary['records_equal'] and summary['verdict'] == 'neutral'


def test_a_failing_pass_closes_both_workers():
    closed = []

    class Failing:
        def __init__(self, tree):
            self.tree = tree

        def run_pass(self, workload, seed):
            if self.tree == 'change':
                raise RuntimeError('worker exited')
            return dict(seconds=1.0, n_star=1, digest='d', failed=[])

        def close(self):
            closed.append(self.tree)

    with pytest.raises(RuntimeError):
        ab_compare.compare({'parent': 'p', 'change': 'change'}, 'suite40', 4, 7, start=Failing)
    assert closed == ['p', 'change']
