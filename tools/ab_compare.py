"""Compare the pass times of two source trees, round by round, in one command.

    python3 tools/ab_compare.py PARENT_TREE CHANGE_TREE \
        [--workloads suite40 grid160 exponents40] [--rounds 50] [--seed 7]

A tree is a checkout of this repository (from `git archive` or `git
clone`). Each round starts one fresh worker process per tree, one after the
other, with the order swapped every round, so both sides see the same drift
of a shared host. A worker,

    python3 tools/ab_compare.py --worker TREE WORKLOAD SEED

imports resesop and perfbench from TREE, makes one untimed warm-up pass and
one timed pass with that tree's own `perfbench.run.run_pass` (the
benchmark's configurations, report files and output gate, on one BLAS
thread), and prints one JSON line: the pass time, the sum of n*, the digest
of its reports by tools/record_digest.py's field rule (the report path left
out, so the digests equal that script's for seed 7) and the labels that
failed the gate. No two rounds share a process, since a worker's pass
time is bimodal from process to process (BENCH_protocol.json): a worker
serving several rounds would count one process difference once per round.
BENCH_abcompare.json holds the calibration: copies of one tree stay
neutral, and a planted 5% slowdown is called slower at 50 rounds, the
default. But a copy that differs by one comment line was called slower on
grid160 and faster on exponents40, so a verdict of a few per cent does not
show that the code itself is faster or slower.

Per workload it prints, for each side, the median, minimum and
interquartile range (IQR) of the pass times, the rounds it won, the sum of
n* and the digest. The verdict is a two-sided sign test on the rounds won
at the 5% level: 'slower' or 'faster' for the change, else 'neutral'. It
is the only verdict: on grid160 the gap between the medians stayed within
the parent's IQR in all 10 runs with a planted 5% slowdown
(BENCH_monitors.json), so that test cannot tell a 5% change from none. The
last line is the whole summary as JSON. It exits 1 when a run fails the
gate or a side's records differ between rounds, and stops with an error
when a worker fails. It changes no setting outside its own processes.
"""

import argparse
import dataclasses
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from record_digest import report_digest  # noqa: E402

SIDES = ('parent', 'change')
SIGNIFICANCE = 0.05


def sign_test(wins, rounds):
    """Two-sided p-value of `wins` out of `rounds` under a fair coin."""
    tail = min(wins, rounds - wins)
    p = 2.0 * sum(math.comb(rounds, k) for k in range(tail + 1)) / 2.0 ** rounds
    return min(1.0, p)


def worker(tree, workload, seed):
    """One warm-up and one timed pass of `tree`; prints the reply line."""
    sys.path[:0] = [str(tree / 'src'), str(tree)]
    from perfbench import run as bench  # fixes one BLAS thread before numpy loads
    import resesop
    bench.silence_library_logging()
    for module, root in ((resesop, tree / 'src'), (bench, tree)):
        if not Path(module.__file__).resolve().is_relative_to(root):
            sys.exit('ab_compare: {} imported from {}, not from {}'.format(
                module.__name__, module.__file__, root))
    with tempfile.TemporaryDirectory() as directory:
        bench.run_pass(resesop, workload, seed, 0, directory)
        ops = bench.run_pass(resesop, workload, seed, 1, directory)
    # The digest of record_digest.py's runs, which write no report.
    digest = report_digest(dataclasses.replace(
        op.report, config=dataclasses.replace(op.report.config, output_path=None))
        for op in ops)
    print(json.dumps(dict(
        seconds=sum(op.seconds for op in ops),
        n_star=sum(op.report.n_star for op in ops),
        digest=digest, failed=[op.label for op in ops if op.reasons])))


def run_side(tree, workload, seed):
    """The reply of one fresh worker process for `tree`."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), '--worker', str(tree),
         workload, str(seed)], capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError('worker for {} exited with {}: {}'.format(
            tree, done.returncode, done.stderr.strip()[-2000:]))
    return json.loads(done.stdout.splitlines()[-1])


def compare(trees, workload, rounds, seed, run_side=run_side):
    """`rounds` rounds of one fresh worker per side, the order swapped
    every round; the summary of one workload."""
    replies = {side: [] for side in SIDES}
    for k in range(rounds):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            replies[side].append(run_side(trees[side], workload, seed))
    times = {side: [reply['seconds'] for reply in replies[side]] for side in SIDES}
    change_wins = sum(c < p for p, c in zip(times['parent'], times['change']))
    won = {'parent': rounds - change_wins, 'change': change_wins}
    summary = {'workload': workload, 'rounds': rounds, 'seed': seed}
    for side in SIDES:
        low, median, high = statistics.quantiles(times[side], n=4, method='inclusive')
        summary[side] = dict(
            median_s=median, min_s=min(times[side]), iqr_s=high - low, won=won[side],
            n_star=sorted({reply['n_star'] for reply in replies[side]}),
            digests=sorted({reply['digest'] for reply in replies[side]}),
            failed=sorted({label for reply in replies[side] for label in reply['failed']}))
    p_value = sign_test(change_wins, rounds)
    summary.update(
        median_gap_s=summary['change']['median_s'] - summary['parent']['median_s'],
        round_ratio_median=statistics.median(
            c / p for p, c in zip(times['parent'], times['change'])),
        sign_test_p=p_value,
        verdict=('neutral' if p_value >= SIGNIFICANCE
                 else 'faster' if 2 * change_wins > rounds else 'slower'),
        records_equal=(summary['parent']['digests'] == summary['change']['digests']
                       and len(summary['parent']['digests']) == 1))
    return summary


def print_summary(summary):
    print('{workload}: {rounds} rounds, seed {seed}'.format(**summary))
    print('  {:<7} {:>9} {:>9} {:>9} {:>7} {:>6}  sha256'.format(
        'side', 'median_s', 'min_s', 'iqr_s', 'won', 'n*'))
    for side in SIDES:
        s = summary[side]
        print('  {:<7} {:>9.4f} {:>9.4f} {:>9.4f} {:>7} {:>6}  {}'.format(
            side, s['median_s'], s['min_s'], s['iqr_s'],
            '{}/{}'.format(s['won'], summary['rounds']),
            '/'.join(map(str, s['n_star'])), ' '.join(s['digests'])))
        if s['failed']:
            print('  {} FAILED: {}'.format(side, ', '.join(s['failed'])))
    print('  median gap {:+.4f} s, median per-round ratio {:.3f}, '
          'sign test p = {:.3g}: {}; records {}'.format(
              summary['median_gap_s'], summary['round_ratio_median'],
              summary['sign_test_p'], summary['verdict'],
              'equal' if summary['records_equal'] else 'DIFFER'))


def parse_args(argv):
    sys.path.insert(0, str(TOOLS.parent))
    from perfbench.workloads import WHY
    parser = argparse.ArgumentParser(
        description='Interleaved A/B pass times of two source trees.')
    parser.add_argument('parent_tree', type=Path)
    parser.add_argument('change_tree', type=Path)
    parser.add_argument('--workloads', nargs='+', choices=list(WHY), default=list(WHY))
    parser.add_argument('--rounds', type=int, default=50)
    parser.add_argument('--seed', type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error('--rounds must be at least 2')
    for tree in (args.parent_tree, args.change_tree):
        if not (tree / 'src' / 'resesop' / '__init__.py').is_file():
            parser.error('{} holds no src/resesop'.format(tree))
    return args


def main(argv=None):
    args = parse_args(argv)
    trees = dict(zip(SIDES, (args.parent_tree.resolve(), args.change_tree.resolve())))
    summaries = []
    for workload in args.workloads:
        summaries.append(compare(trees, workload, args.rounds, args.seed))
        print_summary(summaries[-1])
    print(json.dumps(summaries))
    bad = any(summary[side]['failed'] or len(summary[side]['digests']) != 1
              for summary in summaries for side in SIDES)
    return 1 if bad else 0


if __name__ == '__main__':
    if sys.argv[1:2] == ['--worker']:
        worker(Path(sys.argv[2]).resolve(), sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
