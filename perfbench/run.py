#!/usr/bin/env python3
"""Builds and runs the wire-to-logits benchmark (see perfbench/README.md).

Run from the root of the repository:

  python3 perfbench/run.py --workload serve_small_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the
repository's libraries from source) under .bench_build/perfbench; later
calls rebuild only what changed. The driver's last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. Build output and progress go to stderr.

Exit status: 0 with a result; 1 with a result whose output checks failed,
or no result because the build or the run failed; 2 for bad arguments;
3 for no result because the run could not be trusted.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, '.bench_build', 'perfbench')
WORKLOADS = ('serve_small_hot', 'train_hap')
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f'perfbench: {message}', file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', HERE, '-B', BUILD, '-DCMAKE_BUILD_TYPE=Release'])
    steps.append(['cmake', '--build', BUILD, '--target', target, '-j', '4'])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f'build step timed out: {" ".join(step)}')
        if done.returncode != 0:
            if step[1] == '-S':
                shutil.rmtree(BUILD, ignore_errors=True)
            fail(f'build step failed: {" ".join(step)}')
    return os.path.join(BUILD, target)


def load_contract():
    path = os.path.join(ROOT, 'BENCHMARK.json')
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f'cannot read {path}: {e}')


def shape_result(result, contract, trace):
    """Checks the driver's metrics against BENCHMARK.json. Per-layer
    metrics of a layer the workload never calls (e.g. wire.* on train_hap)
    are reported as 0; any other missing, unknown or mis-united metric is
    an error."""
    wanted = contract['per_layer'] if trace else contract['end_to_end']
    metrics = result['metrics']
    unknown = sorted(set(metrics) - {m['name'] for m in wanted})
    if unknown:
        fail(f'driver reported metrics BENCHMARK.json does not list: {unknown}')
    shaped = {}
    for m in wanted:
        got = metrics.get(m['name'])
        if got is None:
            if not trace:
                fail(f'driver did not report {m["name"]}')
            got = {'value': 0.0, 'unit': m['unit']}
        if got['unit'] != m['unit']:
            fail(f'{m["name"]}: unit {got["unit"]} != {m["unit"]}')
        shaped[m['name']] = got
    return {'correct': result['correct'], 'attempted': result['attempted'],
            'failed': result['failed'], 'metrics': shaped}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', choices=WORKLOADS)
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--selftest', action='store_true',
                        help="build and run the tests of the benchmark's arithmetic")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build('perfbench_stats_test')], check=False).returncode)
    if args.workload is None:
        parser.error('--workload is required')
    if args.seed < 0 or args.seconds <= 0:
        parser.error('--seed must be >= 0 and --seconds > 0')

    contract = load_contract()
    binary = build('perfbench')
    workdir = tempfile.mkdtemp(prefix='run-', dir=os.path.dirname(BUILD))
    try:
        command = [binary, '--workload', args.workload, '--seed', str(args.seed),
                   '--seconds', str(args.seconds), '--trace', str(args.trace),
                   '--workdir', workdir]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f'run did not finish within {RUN_TIMEOUT_S} s')
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode not in (0, 1):
        fail(f'driver exited with {done.returncode} and no result', done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail('driver printed no result')
    result = shape_result(json.loads(lines[-1]), contract, args.trace == 1)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == '__main__':
    main()
