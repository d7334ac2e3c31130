#!/usr/bin/env python3
"""Compare two commits on one BENCHMARK.json workload in alternating pairs.

    python3 tools/bench_pairs.py --work-dir DIR --workload pushdown_cold \\
        [--base REV] [--change REV] [--pairs 10] [--seed 4] [--trace 0]

Exports the base (default HEAD) and the change (default: the working
tree's tracked and untracked, not ignored, files) into DIR/base/tree and
DIR/change/tree, and builds each through its own perfbench/run.py with
its own CARGO_TARGET_DIR, DIR/<side>/target, which a later call reuses.
An export rewrites only the files whose bytes differ from the tree's,
stamped with the current time, and deletes the files the revision
lacks, so a reused target rebuilds exactly what changed, whichever way
the revision moved. It then runs N pairs of the
workload, each run for BENCHMARK.json's run_seconds (or --seconds),
swapping which side runs first every pair, and prints for each metric:
both sides' median and quartiles, the pairs the change won in the
metric's `better` direction (ties count for neither), and

  - with --trace 0, the end-to-end metrics and whether the change's
    median stays within the metric's bound of the base's median;
  - with --trace 1, the per-layer metrics, which have no bound.

The last column says whether the gain rule holds: the change wins at
least nine tenths of the pairs and the medians differ by more than the
base runs' interquartile range.

Exit codes: 0 every run correct and none failed, 1 a run failed, gave a
wrong answer or printed no result, 2 usage or build error. --json PATH
writes every run's metrics.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(a, b, direction):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def count_wins(base, change, direction):
    """Pairs in which the change's run beat the base's run."""
    return sum(better(c, b, direction) for b, c in zip(base, change))


def within_bound(base_median, change_median, direction, bound):
    """The change's median is worse than the base's by at most `bound`
    (a fraction of the base's median)."""
    if direction == "lower":
        return change_median <= base_median * (1 + bound)
    return change_median >= base_median * (1 - bound)


def gain_holds(base, change, direction):
    """Wins in at least 9/10 of the pairs, and a median improvement
    larger than the base runs' interquartile range."""
    wins = count_wins(base, change, direction)
    q1, q3 = quartiles(base)
    improved = better(median(change), median(base), direction)
    return (10 * wins >= 9 * len(base) and improved and
            abs(median(change) - median(base)) > q3 - q1)


def summarize(spec, base, change):
    """One table row for metric `spec` (a BENCHMARK.json entry)."""
    direction = spec["better"]
    row = {
        "name": spec["name"],
        "unit": spec["unit"],
        "better": direction,
        "base_median": median(base),
        "base_quartiles": quartiles(base),
        "change_median": median(change),
        "change_quartiles": quartiles(change),
        "wins": count_wins(base, change, direction),
        "pairs": len(base),
        "gain": gain_holds(base, change, direction),
    }
    if "bound" in spec:
        row["bound"] = spec["bound"]
        row["within_bound"] = within_bound(row["base_median"],
                                           row["change_median"], direction,
                                           spec["bound"])
    return row


def parse_result(stdout):
    """The benchmark's last output line: its JSON result, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return result


def run_ok(code, result):
    return (code == 0 and result is not None and result.get("correct") is True
            and result.get("failed", 1) == 0)


def export(rev, dest):
    """Makes `dest` hold exactly the files of `rev` (or of the working
    tree). They are written to a staging dir first; a file whose bytes
    differ from `dest`'s copy is copied in with the current time, an
    unchanged file keeps its time, and a file `rev` lacks is deleted."""
    staging = dest + ".staging"
    write_files(rev, staging)
    wanted = set()
    for parent, _, files in os.walk(staging):
        for name in files:
            rel = os.path.relpath(os.path.join(parent, name), staging)
            wanted.add(rel)
            src, dst = os.path.join(staging, rel), os.path.join(dest, rel)
            if not (os.path.isfile(dst) and
                    filecmp.cmp(src, dst, shallow=False)):
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copyfile(src, dst)
            shutil.copymode(src, dst)
    for parent, _, files in os.walk(dest):
        for name in files:
            path = os.path.join(parent, name)
            if os.path.relpath(path, dest) not in wanted:
                os.remove(path)
    shutil.rmtree(staging)


def write_files(rev, dest):
    """Writes the files of `rev` (or of the working tree) to a fresh
    `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        names = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, check=True,
            capture_output=True).stdout.decode().split("\0")
        for name in filter(None, names):
            src = os.path.join(ROOT, name)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_side(tree, args, seconds):
    target = os.path.join(os.path.dirname(tree), "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    return proc.returncode, parse_result(proc.stdout), proc.stderr


def fmt(value):
    return f"{value:.6g}"


def print_table(rows, with_bound):
    header = (f"{'metric':<34} {'base median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'wins':>6}")
    if with_bound:
        header += f" {'bound':>12}"
    print(header + "  gain")
    for r in rows:
        b1, b3 = r["base_quartiles"]
        c1, c3 = r["change_quartiles"]
        line = (f"{r['name']:<34} "
                f"{fmt(r['base_median']) + ' [' + fmt(b1) + ', ' + fmt(b3) + ']':>36} "
                f"{fmt(r['change_median']) + ' [' + fmt(c1) + ', ' + fmt(c3) + ']':>36} "
                f"{str(r['wins']) + '/' + str(r['pairs']):>6}")
        if with_bound:
            verdict = "ok" if r["within_bound"] else "EXCEEDED"
            line += f" {verdict + ' ' + format(r['bound'], 'g'):>12}"
        print(line + "  " + ("yes" if r["gain"] else "no"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", required=True,
                        help="directory for the two exported trees")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", default=WORKTREE)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    trees = {side: os.path.join(os.path.abspath(args.work_dir), side, "tree")
             for side in ("base", "change")}
    for side, rev in (("base", args.base), ("change", args.change)):
        export(rev, trees[side])
        # A short first run builds the side; its numbers are discarded.
        code, result, err = run_side(trees[side], args, 1.0)
        if code == 2 or result is None:
            sys.stderr.write(err[-4000:])
            print(f"bench_pairs: {side} ({rev}) did not build or run",
                  file=sys.stderr)
            return 2

    runs = {"base": [], "change": []}
    all_ok = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            code, result, err = run_side(trees[side], args, seconds)
            ok = run_ok(code, result)
            all_ok &= ok
            runs[side].append(result)
            status = "ok" if ok else f"FAILED (exit {code})"
            print(f"pair {i + 1}/{args.pairs} {side:<6} {status}", flush=True)
            if not ok:
                sys.stderr.write(err[-2000:])

    rows = []
    for spec in specs:
        base = [r["metrics"].get(spec["name"], {}).get("value")
                for r in runs["base"] if r]
        change = [r["metrics"].get(spec["name"], {}).get("value")
                  for r in runs["change"] if r]
        if (len(base) != args.pairs or len(change) != args.pairs or
                None in base or None in change):
            print(f"bench_pairs: {spec['name']} missing from a run",
                  file=sys.stderr)
            all_ok = False
            continue
        rows.append(summarize(spec, base, change))

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s, trace {args.trace}: base {args.base}, "
          f"change {args.change}")
    print_table(rows, with_bound=args.trace == 0)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": seconds, "trace": args.trace,
                       "base": args.base, "change": args.change,
                       "runs": runs, "rows": rows}, f, indent=1)
    if not all_ok:
        print("bench_pairs: a run failed or gave a wrong answer",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
