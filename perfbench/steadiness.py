#!/usr/bin/env python3
"""Steadiness evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py      # from the checkout root

Runs perfbench/run.py over two sets of seeds 1-10, each seed running every
BENCHMARK.json workload at its run_seconds in turn, so host drift hits the
workloads alike. Prints for each end-to-end metric the median, quartiles
and spread (IQR / median) of every set, plus the set-to-set change of the
median measured in the metric's worse direction. A metric passes when
every spread is within its bound and set 2's median is not worse than set
1's by more than the bound.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                {})
    return json.loads(lines[-1]), host


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    # values[workload][metric][set] -> list over seeds
    values = {w: {} for w in workloads}
    calib = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in SEEDS:
            for w in workloads:
                result, host = run(w, seed, seconds)
                calib[w][s].append(host.get("calib_ms", 0.0))
                for name, m in result["metrics"].items():
                    values[w].setdefault(
                        name, [[] for _ in range(SETS)])[s].append(m["value"])
                print(f"set {s + 1} seed {seed} {w}: ops={result['attempted']}"
                      f" calib_ms={host.get('calib_ms', 0):.2f} " +
                      " ".join(f"{k}={v['value']:.4g}"
                               for k, v in sorted(result["metrics"].items())),
                      flush=True)

    ok = True
    print(f"\nrun_seconds={seconds} seeds={SEEDS.start}-{SEEDS.stop - 1} "
          f"sets={SETS}")
    for w in workloads:
        print(f"\n== {w} (calib_ms median per set: " + ", ".join(
            f"{statistics.median(c):.2f}" for c in calib[w]) + ")")
        print(f"{'metric':16s} {'bound':>6s}  " + "  ".join(
            f"{'set' + str(s + 1) + ' q1/med/q3':>30s} {'spread':>7s}"
            for s in range(SETS)) + f"  {'delta':>7s}")
        for m in spec["end_to_end"]:
            sets = values[w].get(m["name"])
            if sets is None:
                continue
            row = f"{m['name']:16s} {m['bound']:6.3f}  "
            medians = []
            for vals in sets:
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                flag = "" if spread <= m["bound"] else "!"
                ok = ok and not flag
                row += (f"{q1:10.4g}/{med:9.4g}/{q3:9.4g} "
                        f"{spread:6.3f}{flag or ' '}  ")
            worse = 0.0
            for med in medians[1:]:
                change = (med - medians[0]) / medians[0] if medians[0] else 0
                worse = max(worse,
                            change if m["better"] == "lower" else -change)
            flag = "!" if worse > m["bound"] else ""
            ok = ok and not flag
            print(row + f"{worse:+7.3f}{flag}")
    print("\nall spreads and set-to-set changes within bounds" if ok else
          "\nSOME METRIC EXCEEDS ITS BOUND (marked !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
