#!/usr/bin/env python3
"""The host-cost gate behind `make hotpath-gate`.

Checks out a base revision with `git worktree` under .bench_build/base
and runs the repository benchmark's Table-3 workload there and on the
working tree, one pair of runs at each seed 1..PAIRS, one after another.
The base runs first at odd seeds and the change at even ones, so a
host that drifts within a pair favours neither side:

    bash bench/run.sh --workload table3 --seed i --seconds SECONDS --trace 0

Seeds 1 and 2 replay golden rows. The gate fails when any run is not
`correct: true` with `failed: 0`, naming the side and the seed and
printing that run's `hhbench:` stderr lines, or when, for any end-to-end
metric in the base's BENCHMARK.json, the median over pairs of the
change/base ratio is worse than the parent by more than that metric's
bound. Pairing within minutes cancels the host's slow phases, which a
comparison with a figure recorded on another day cannot.

    python3 scripts/hotpath_gate.py BASE

BASE is a git revision. An empty BASE means the parent of the change
under test: HEAD when tracked files have uncommitted changes, HEAD~1
when they have none. The worktree is removed on every exit path. Exit
status: 0 when the gate holds, 1 when it fails, 2 on a usage or
checkout error.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

PAIRS = 8
SECONDS = '10'


def git(*args, cwd=None):
    return subprocess.run(['git', *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(tree, seed):
    """Runs table3 once in tree: its result line (None when it printed
    none) and its stderr lines. The run gets a process group of its own,
    killed whole when the gate is interrupted, so no `go build` of it
    outlives the gate and its worktree."""
    p = subprocess.Popen(['bash', 'bench/run.sh', '--workload', 'table3', '--seed', str(seed),
                          '--seconds', SECONDS, '--trace', '0'],
                         cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate()
    finally:
        if p.returncode is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            p.wait()
    lines = out.splitlines()
    res = None
    if p.returncode == 0 and lines:
        try:
            res = json.loads(lines[-1])
        except ValueError:
            pass
    return res, err.splitlines()


def gate(root, tree, metrics):
    names = [m['name'] for m in metrics]
    print('seed ' + ''.join(f'{n:>14}' for n in names) + '  (change/base)')
    ratios = {n: [] for n in names}
    for seed in range(1, PAIRS + 1):
        got = {}
        sides = (('base', tree), ('change', root))
        for side, cwd in sides if seed % 2 else sides[::-1]:
            res, stderr = bench(cwd, seed)
            if res is None or res.get('correct') is not True or res.get('failed') != 0:
                if res is None:
                    # It never ran: show why (a build error, say).
                    summary, shown = 'no result line', stderr[-20:]
                else:
                    summary = {k: res.get(k) for k in ('correct', 'attempted', 'failed')}
                    shown = [l for l in stderr if l.startswith('hhbench:')]
                print(f'hotpath-gate: FAIL: the {side} run at seed {seed} is not correct with 0 failed: {summary}')
                for line in shown:
                    print('  ' + line)
                return 1
            missing = [n for n in names if n not in res.get('metrics', {})]
            if missing:
                print(f'hotpath-gate: FAIL: the {side} run at seed {seed} reports no {", ".join(missing)}')
                return 1
            got[side] = res['metrics']
        for n in names:
            ratios[n].append(got['change'][n]['value'] / got['base'][n]['value'])
        print(f'{seed:>4} ' + ''.join(f'{ratios[n][-1]:>14.3f}' for n in names), flush=True)

    medians, limits, failed = [], [], []
    for m in metrics:
        med = statistics.median(ratios[m['name']])
        lower = m['better'] == 'lower'
        limit = 1 + m['bound'] if lower else 1 - m['bound']
        if (med > limit) if lower else (med < limit):
            failed.append(f"{m['name']} {med:.3f}")
        medians.append(f'{med:>14.3f}')
        limits.append(f"{('<=' if lower else '>=') + f'{limit:.2f}':>14}")
    print('med  ' + ''.join(medians))
    print('bound' + ''.join(limits))
    if failed:
        print('hotpath-gate: FAIL: median ratio past its bound: ' + ', '.join(failed))
        return 1
    print(f'hotpath-gate: ok: every median ratio within its bound over {PAIRS} pairs')
    return 0


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = sys.argv[1]
    # SIGTERM unwinds like Ctrl-C, so the worktree goes either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        root = git('rev-parse', '--show-toplevel')
        if not base:
            # Untracked files are not the change under test: a stray one
            # must not turn a committed change into HEAD against HEAD.
            dirty = git('status', '--porcelain', '--untracked-files=no', cwd=root)
            base = 'HEAD' if dirty else 'HEAD~1'
        rev = git('rev-parse', '--verify', base + '^{commit}', cwd=root)
        tree = os.path.join(root, '.bench_build', 'base')
        # A gate killed outright leaves its worktree behind; clear it.
        subprocess.run(['git', 'worktree', 'remove', '--force', tree], cwd=root, capture_output=True)
        git('worktree', 'prune', cwd=root)
        git('worktree', 'add', '--detach', tree, rev, cwd=root)
    except subprocess.CalledProcessError as e:
        print(f'hotpath-gate: {e.stderr.strip()}', file=sys.stderr)
        return 2
    try:
        # The base's bounds, so a change cannot loosen its own gate.
        with open(os.path.join(tree, 'BENCHMARK.json')) as f:
            metrics = json.load(f)['end_to_end']
        print(f'hotpath-gate: table3, {PAIRS} pairs at --seconds {SECONDS}: '
              f'base {base} ({rev[:12]}) against the working tree', flush=True)
        return gate(root, tree, metrics)
    finally:
        subprocess.run(['git', 'worktree', 'remove', '--force', tree], cwd=root, check=True)


if __name__ == '__main__':
    sys.exit(main())
