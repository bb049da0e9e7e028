#!/usr/bin/env python3
"""Run the repository benchmark on two checkouts in alternating pairs.

    python3 tools/bench_pairs.py --base <checkout> --change <checkout>
        --workload query-cold --seeds 2001-2010 [--seconds 20]
        [--out BENCH_x.json] [--append]

The output records each invocation under "commands" (checkout paths
replaced by placeholders).

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout; even pairs run the base first, odd pairs
the change first, so slow drifts of the host do not favour one side.  Every
result line is kept as the harness printed it, and the summary gives each
side's median and quartiles per metric plus, per metric, how many pairs the
change won (by the metric's own direction).  Pass two checkouts made with
`git clone` or `git archive`, never the same directory twice: each one
builds its own .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HIGHER_IS_BETTER = {"slo_met_ratio", "capacity_qps"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("error: benchmark failed in %s (seed %d)"
                         % (checkout, seed))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(runs):
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in rows})
        metrics = sorted(rows[0]["result"]["metrics"])
        per_metric = {}
        for m in metrics:
            side = {s: [r["result"]["metrics"][m]["value"] for r in rows
                        if r["side"] == s] for s in ("base", "change")}
            by_pair = {(r["pair"], r["side"]):
                       r["result"]["metrics"][m]["value"] for r in rows}
            wins = 0
            for p in pairs:
                b, c = by_pair[(p, "base")], by_pair[(p, "change")]
                wins += (c > b) if m in HIGHER_IS_BETTER else (c < b)
            base_q = quartiles(side["base"])
            change_q = quartiles(side["change"])
            per_metric[m] = {
                "unit": rows[0]["result"]["metrics"][m]["unit"],
                "base": base_q,
                "change": change_q,
                "change_over_base": change_q["median"] / base_q["median"],
                "change_wins": "%d of %d" % (wins, len(pairs)),
            }
        out[workload] = per_metric
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", default=None)
    parser.add_argument("--append", action="store_true",
                        help="add to the runs already in --out")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")

    doc = {"runs": []}
    if args.append and args.out and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    first_pair = 1 + max((r["pair"] for r in doc["runs"]
                          if r["workload"] == args.workload), default=-1)
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}
    for i, seed in enumerate(args.seeds):
        pair = first_pair + i
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(checkouts[side], args.workload, seed,
                              args.seconds)
            doc["runs"].append({"workload": args.workload, "pair": pair,
                                "seed": seed, "side": side,
                                "result": result})
            print("%s pair %d seed %d %s: %s" % (
                args.workload, pair, seed, side,
                json.dumps(result["metrics"])), file=sys.stderr)
    # Checkout paths are local to the host; record the rest verbatim.
    command = ("python3 tools/bench_pairs.py --base <parent checkout> "
               "--change <this checkout> --workload %s --seeds %s "
               "--seconds %d" % (args.workload,
                                 ",".join(map(str, args.seeds)),
                                 args.seconds))
    doc.setdefault("commands", []).append(command)
    doc["summary"] = summarise(doc["runs"])
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
