"""Compare the pass times of two source trees, pass by pass, in one command.

    python3 tools/ab_compare.py PARENT_TREE CHANGE_TREE \
        [--workloads suite40 grid160 exponents40] [--rounds 50] [--seed 7]

A tree is a checkout of this repository (from `git archive` or `git
clone`). The tool runs one worker process per tree at a time, with BLAS on
one thread; each imports resesop and perfbench from its own tree. A pass
runs every configuration of `perfbench.workloads.configs(workload, seed)`
once with `run_experiment`, writing the report files the workload asks
for, and its time is the sum of the `run_experiment` times, as perfbench's
`pass_s`. The rounds of a workload are spread over fresh worker pairs,
PAIR_ROUNDS rounds each: a pair starts, each worker makes one untimed
warm-up pass, then the two alternate, one pass each per round, with the
order swapped every round, so both sides see the same drift of a shared
host; then the pair exits. With one long-lived pair for all rounds, a
fixed difference between its two processes counted once per round: a
suite40 tree against a copy of itself was called faster in two of four
runs (BENCH_kernels.json). With the pairs (BENCH_abpairs.json) every self
run was neutral, but on suite40, where a pass's IQR is about a quarter of
its median, 50 rounds missed a planted 5% slowdown that 100 rounds caught;
the default 50 rounds are calibrated on grid160 (BENCH_monitors.json).

Per workload it prints, for each side, the median, minimum and
interquartile range (IQR) of the pass times, the rounds it won in all and
per pair, the sum of n* and the digest of its reports by
tools/record_digest.py's field rule (the report path left out, so the
digests equal that script's for seed 7). The verdict is a two-sided sign
test on the rounds won at the 5% level: 'slower' or 'faster' for the
change, else 'neutral'. It is the only verdict: on grid160 the gap
between the medians stayed within the parent's IQR in all 10 runs with a
planted 5% slowdown (BENCH_monitors.json), so that test cannot tell a 5%
change from none. The last line is the whole summary as JSON. It exits 1
when a run fails or a side's records differ between its passes. It
changes no setting outside its own processes.
"""

import argparse
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from record_digest import ONE_BLAS_THREAD, report_digest  # noqa: E402

SIDES = ('parent', 'change')
SIGNIFICANCE = 0.05
PAIR_ROUNDS = 10  # rounds per worker pair; each block of this many starts a fresh pair


def sign_test(wins, rounds):
    """Two-sided p-value of `wins` out of `rounds` under a fair coin."""
    tail = min(wins, rounds - wins)
    p = 2.0 * sum(math.comb(rounds, k) for k in range(tail + 1)) / 2.0 ** rounds
    return min(1.0, p)


def worker(tree):
    """Serve passes on stdin/stdout: one JSON request and reply per line."""
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies reaches the pipe
    sys.path[:0] = [str(tree / 'src'), str(tree)]
    from perfbench.workloads import configs, report_paths, silence_library_logging
    import resesop
    silence_library_logging()
    if Path(resesop.__file__).resolve().parent != tree / 'src' / 'resesop':
        sys.exit('ab_compare: resesop imported from {}, not from {}'.format(
            resesop.__file__, tree))
    with tempfile.TemporaryDirectory() as directory:
        for line in sys.stdin:
            request = json.loads(line)
            reports, failed, seconds = [], [], 0.0
            for label, fields, writes in configs(request['workload'], request['seed']):
                path = report_paths(directory, len(reports))[0] if writes else None
                cfg = resesop.ExperimentConfig(output_path=path, **fields)
                tic = time.perf_counter()
                reports.append(resesop.run_experiment(cfg))
                seconds += time.perf_counter() - tic
                if reports[-1].stop_reason == 'failed':
                    failed.append(label)
            # The digest of record_digest.py's runs, which write no report.
            digest = report_digest(dataclasses.replace(
                report, config=dataclasses.replace(report.config, output_path=None))
                for report in reports)
            replies.write(json.dumps(dict(
                seconds=seconds, n_star=sum(report.n_star for report in reports),
                digest=digest, failed=failed)) + '\n')
            replies.flush()


class Worker:
    """One worker process for one tree."""

    def __init__(self, tree):
        self.tree = tree
        env = dict(os.environ, **ONE_BLAS_THREAD)
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), '--worker', str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run_pass(self, workload, seed):
        self.process.stdin.write(json.dumps(dict(workload=workload, seed=seed)) + '\n')
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError('worker for {} exited with {}'.format(
                self.tree, self.process.wait()))
        return json.loads(line)

    def close(self):
        self.process.stdin.close()
        self.process.wait()


def compare(trees, workload, rounds, seed, start=Worker):
    """`rounds` alternating rounds over fresh worker pairs, each warmed up
    first; the summary of one workload. `start(tree)` starts a worker."""
    replies = {side: [] for side in SIDES}
    for first in range(0, rounds, PAIR_ROUNDS):
        workers = {}
        try:
            for side in SIDES:
                workers[side] = start(trees[side])
            for side in SIDES:
                workers[side].run_pass(workload, seed)
            for k in range(first, min(first + PAIR_ROUNDS, rounds)):
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    replies[side].append(workers[side].run_pass(workload, seed))
        finally:
            for worker in workers.values():
                worker.close()
    times = {side: [reply['seconds'] for reply in replies[side]] for side in SIDES}
    won = {'change': [c < p for p, c in zip(times['parent'], times['change'])]}
    won['parent'] = [not change for change in won['change']]
    change_wins = sum(won['change'])
    summary = {'workload': workload, 'rounds': rounds, 'seed': seed}
    for side in SIDES:
        low, median, high = statistics.quantiles(times[side], n=4, method='inclusive')
        summary[side] = dict(
            median_s=median, min_s=min(times[side]), iqr_s=high - low,
            won=sum(won[side]),
            won_per_pair=[sum(won[side][k:k + PAIR_ROUNDS])
                          for k in range(0, rounds, PAIR_ROUNDS)],
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
        print('          won per pair: {}'.format(' '.join(map(str, s['won_per_pair']))))
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
        worker(Path(sys.argv[2]))
    else:
        sys.exit(main())
