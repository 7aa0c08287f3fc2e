#!/usr/bin/env python3
"""Runs certbench once per seed and reports each metric's median and spread.

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median: the
figure BENCHMARK.json's bounds are checked against. Run from the repository
root:

    python3 certbench/spread.py --workload serve-patch --seeds 1-10 --seconds 40

With --json the per-seed values, the machine line of the report, the
hypervisor's steal share of each window and the summary are merged into a
file (certbench/baseline.json records the seed commit's figures this way).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    """Returns the result line and the report lines of one run."""
    cmd = ["bash", "certbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def report_value(report, prefix):
    return next((l[len(prefix):].strip() for l in report if l.startswith(prefix)), None)


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="merge the values and summary into this JSON file")
    args = ap.parse_args()

    values, units, steal, machine = {}, {}, [], None
    for seed in seed_list(args.seeds):
        line, report = run_once(args.workload, seed, args.seconds, args.trace)
        if not line["correct"]:
            raise SystemExit(f"{args.workload} seed {seed}: correctness gate failed")
        machine = machine or report_value(report, "# machine ")
        s = report_value(report, "# host steal_share=")
        steal.append(float(s.split()[0]) if s else None)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: steal_share={steal[-1]} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(line["metrics"].items())), flush=True)
        overhead = report_value(report, "# tracing overhead:")
        if overhead:
            print(f"seed {seed}: tracing overhead: {overhead}", flush=True)

    summary = {name: dict(summarize(vs), unit=units[name]) for name, vs in sorted(values.items())}
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:14.4f} {s['unit']:6s} q1 {s['q1']:14.4f} "
              f"q3 {s['q3']:14.4f} spread {s['spread']:.4f}")

    if args.json:
        try:
            with open(args.json) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {}
        key = args.workload + (" traced" if args.trace else "")
        doc.setdefault("workloads", {})[key] = {
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "machine": machine, "steal_share": steal, "values": values, "metrics": summary}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
