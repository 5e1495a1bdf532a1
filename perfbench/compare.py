#!/usr/bin/env python3
"""Collect, summarise and compare sets of perfbench runs.

    compare.py collect DIR [--tree PATH] [--seeds 1-10] [--trace 0|1]
        Run <tree>/perfbench/run.py (default: this checkout) once per
        workload of BENCHMARK.json and seed, for its run_seconds; save each
        run's stdout as DIR/<workload>-<seed>-t<trace>.json.

    compare.py spread DIR
        Per workload and metric: median, quartiles, and the spread
        (q3 - q1) / median next to the metric's bound in BENCHMARK.json.

    compare.py diff BASE NEW
        Per workload and metric: each side's median and quartiles, the
        change of the medians, the fraction of seed-matched pairs NEW won
        (ties count for neither), and whether the change is a regression
        beyond the bound or a gain (NEW wins >= 90% of pairs and the
        medians differ by more than BASE's own quartile spread).

Quartiles are statistics.quantiles(values, n=4). Exit status of diff: 1
when any metric regressed beyond its bound, or any run was incorrect.
Every command first checks this tool's own arithmetic (self_check()).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_spec():
    """name -> (better, bound or None) for every metric BENCHMARK.json
    declares; the scheme suffix of per-layer names is kept."""
    bench = load_bench()
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench["end_to_end"] + bench["per_layer"]}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    bench = load_bench()
    os.makedirs(args.dir, exist_ok=True)
    runner = os.path.join(os.path.abspath(args.tree), "perfbench", "run.py")
    for seed in parse_seeds(args.seeds):
        for workload in [w["name"] for w in bench["workloads"]]:
            command = [sys.executable, runner, "--workload", workload,
                       "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", args.trace]
            run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                 cwd=os.path.abspath(args.tree))
            name = "%s-%d-t%s.json" % (workload, seed, args.trace)
            if run.returncode != 0:
                print("%s: run failed (exit %d)" % (name, run.returncode))
                continue
            with open(os.path.join(args.dir, name), "w") as f:
                f.write(run.stdout)
            print("%s: %s" % (name, run.stdout.strip().splitlines()[-1][:120]))


def load_set(directory):
    """{workload: {seed: result}} from a collect directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload, seed, _ = os.path.basename(path).rsplit("-", 2)
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        runs.setdefault(workload, {})[int(seed)] = result
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def spec_of(spec, metric):
    return spec.get(metric, ("lower", None))


def incorrect(runs):
    bad = [(w, s) for w, by_seed in runs.items()
           for s, r in by_seed.items() if not r["correct"] or r["failed"]]
    for w, s in bad:
        print("INCORRECT or failed ops: %s seed %d" % (w, s))
    return bad


def spread(args):
    spec = load_spec()
    runs = load_set(args.dir)
    for workload in sorted(runs):
        results = list(runs[workload].values())
        print("== %s (%d runs)" % (workload, len(results)))
        for metric in results[0]["metrics"]:
            vals = values(results, metric)
            med, q1, q3 = summary(vals)
            rel = (q3 - q1) / med if med else 0.0
            _, bound = spec_of(spec, metric)
            note = "" if bound is None else "bound %.3f  spread/bound %.2f" % (
                bound, rel / bound)
            print("  %-28s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  %s"
                  % (metric, med, q1, q3, rel, note))
    return 1 if incorrect(runs) else 0


def compare(a, b, pairs, better, bound):
    """The one A/B rule. `a`, `b`: each side's values of one metric;
    `pairs`: seed-matched (base, new) values. Returns the summaries, the
    change of the medians, the pairs NEW won, and the verdict."""
    sign = 1 if better == "higher" else -1
    (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    change = (mb - ma) / ma if ma else 0.0
    verdict = "within bound" if bound is not None else "no bound"
    if bound is not None and -sign * change > bound:
        verdict = "REGRESSION beyond bound %.3f" % bound
    elif (pairs and won >= 0.9 * len(pairs) and
          abs(mb - ma) > (a3 - a1) and sign * change > 0):
        verdict = "gain"
    return (ma, a1, a3), (mb, b1, b3), change, won, verdict


def diff(args):
    spec = load_spec()
    base, new = load_set(args.base), load_set(args.new)
    status = 1 if incorrect(base) or incorrect(new) else 0
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        print("== %s (%d seed-matched pairs)" % (workload, len(seeds)))
        for metric in next(iter(base[workload].values()))["metrics"]:
            better, bound = spec_of(spec, metric)
            a = values(base[workload].values(), metric)
            b = values(new[workload].values(), metric)
            if not a or not b:
                continue
            pairs = [(base[workload][s]["metrics"][metric]["value"],
                      new[workload][s]["metrics"][metric]["value"])
                     for s in seeds]
            (ma, a1, a3), (mb, b1, b3), change, won, verdict = compare(
                a, b, pairs, better, bound)
            if verdict.startswith("REGRESSION"):
                status = 1
            print("  %-28s base %11.5g [%9.5g, %9.5g]"
                  "  new %11.5g [%9.5g, %9.5g]  %+7.2f%%  won %d/%d  %s"
                  % (metric, ma, a1, a3, mb, b1, b3, 100 * change, won,
                     len(seeds), verdict))
    return status


def self_check():
    """Pin summary() and compare() down on fixed inputs."""
    ten = list(range(1, 11))
    assert summary(ten) == (5.5, 2.75, 8.25), summary(ten)
    assert summary([7.0]) == (7.0, 7.0, 7.0)
    assert summary([3.5, 1.25, 9, 4]) == (3.75, 1.8125, 7.75)
    # NEW = BASE + 1 on every seed: a win on every pair, and the medians
    # move 1, which is less than BASE's quartile spread of 5.5: no gain.
    up = [x + 1 for x in ten]
    pairs = list(zip(ten, up))
    *_, change, won, verdict = compare(ten, up, pairs, "higher", 0.2)
    assert abs(change - 1 / 5.5) < 1e-12 and won == 10, (change, won)
    assert verdict == "within bound", verdict
    # Lower is better: the same +18% is a regression beyond a 0.1 bound.
    *_, won, verdict = compare(ten, up, pairs, "lower", 0.1)
    assert won == 0 and verdict.startswith("REGRESSION"), verdict
    # Doubled on every seed: won 10/10, but the medians move 5.5, no more
    # than BASE's spread. Tripled, they move 11: a gain.
    twice = [2 * x for x in ten]
    *_, verdict = compare(ten, twice, list(zip(ten, twice)), "higher", 0.2)
    assert verdict == "within bound", verdict
    thrice = [3 * x for x in ten]
    *_, verdict = compare(ten, thrice, list(zip(ten, thrice)), "higher", 0.2)
    assert verdict == "gain", verdict
    # Won only 8 of 10 pairs: not a gain, however large the change.
    mixed = thrice[:8] + ten[8:]
    *_, won, verdict = compare(ten, mixed, list(zip(ten, mixed)), "higher",
                               None)
    assert won == 8 and verdict == "no bound", (won, verdict)



def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--tree", default=ROOT)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", default="0", choices=["0", "1"])
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args()
    self_check()
    return {"collect": collect, "spread": spread, "diff": diff}[
        args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
