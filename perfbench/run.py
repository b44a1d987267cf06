#!/usr/bin/env python3
"""End-to-end benchmark of the OA library generator (see perfbench/README.md).

    python3 perfbench/run.py --workload generate|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds the oabench and oagen
binaries from source into .bench_build/ (configured on the first run),
prepares the serving artifact for `serve`, runs one workload and prints,
as the last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). Exits 1 when an output was wrong, an op failed,
or a count that must repeat for the seed did not repeat in an earlier run
of the same build.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(STATE, "build")
WORK = os.path.join(STATE, "work")
BINARY = os.path.join(BUILD, "oabench")
OAGEN = os.path.join(BUILD, "oablas", "tools", "oagen")
WORKLOAD_TIMEOUT_S = 170
# The serving artifact's variants; serve.cpp's kTuned and kBatchedVariants.
SERVED = ["GEMM-NN", "GEMM-TN", "SYMM-LL", "TRMM-LL-N", "DGEMM-NN",
          "DGEMM-TN", "DSYMM-LL", "DTRMM-LL-N", "GEMM_BATCHED-NN",
          "DGEMM_STRIDED_BATCHED-NN"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "oabench", "oagen",
           "-j", str(nproc())]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def build_state_dir():
    """Per-build state (serving artifact, determinism records, results),
    keyed by the content of the two binaries, so only runs of the same
    code are compared."""
    digest = hashlib.sha256()
    for path in (BINARY, OAGEN):
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    return os.path.join(STATE, "runs", digest.hexdigest()[:16])


def prepare_serve_library(state):
    """Emits the serving artifact once per build with the code under test,
    along oagen's --emit-lib path (untimed prep)."""
    path = os.path.join(state, "serve.oalib")
    if os.path.exists(path):
        return path
    os.makedirs(state, exist_ok=True)
    tmp = path + ".tmp"
    proc = subprocess.run([OAGEN, "--emit-lib", tmp, "--variants",
                           ",".join(SERVED)],
                          stdout=sys.stderr, timeout=WORKLOAD_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    os.replace(tmp, path)
    return path


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def save_json(path, value):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def determinism_guard(state, workload, seed, values):
    """Values that are a pure function of the seed must repeat exactly
    between runs of one build; the build's first run of a seed records
    them."""
    path = os.path.join(state, "determinism", f"{workload}-seed{seed}.json")
    recorded = load_json(path) or {}
    mismatches = [k for k in values
                  if k in recorded and recorded[k] != values[k]]
    for k in mismatches:
        log(f"ERROR: {workload} seed {seed}: {k} = {values[k]}, "
            f"an earlier run gave {recorded[k]}")
    recorded.update(values)
    save_json(path, recorded)
    return not mismatches


def declared_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if spec is None:
        return None
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["generate", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    os.makedirs(WORK, exist_ok=True)
    state = build_state_dir()
    cmd = [BINARY, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK]
    if args.workload == "serve":
        artifact = prepare_serve_library(state)
        if artifact is None:
            log("serve prep: artifact emission failed")
            return 1
        cmd += ["--artifact", artifact]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {WORKLOAD_TIMEOUT_S} s")
        return 1

    lines = {}
    for line in proc.stdout.splitlines():
        key, _, payload = line.partition(" ")
        if key in ("host", "determinism", "result"):
            lines[key] = json.loads(payload)
    if "result" not in lines:
        log(f"{args.workload} exited {proc.returncode} without a result")
        return 1
    result = lines["result"]
    correct = result["correct"] and proc.returncode == 0
    if not determinism_guard(state, args.workload, args.seed,
                             lines.get("determinism", {})):
        correct = False

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    if declared is not None:
        for m in declared:
            if m["name"] not in metrics:
                if not args.trace:
                    log(f"ERROR: end-to-end metric {m['name']} missing")
                    correct = False
                    continue
                # A layer this workload never calls into did no work.
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            elif metrics[m["name"]]["unit"] != m["unit"]:
                log(f"ERROR: {m['name']} unit {metrics[m['name']]['unit']}"
                    f" != declared {m['unit']}")
                correct = False

    host = dict(lines.get("host", {}))
    host.update({"git_sha": git_sha(), "workload": args.workload,
                 "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "ops": result["attempted"]})
    record = os.path.join(state, "results",
                          f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    save_json(record, {"host": host, "metrics": metrics})
    if args.trace:
        untraced = load_json(record.replace("-trace1.json", "-trace0.json"))
        if untraced and "trace.op_p50_ms" in metrics:
            base = untraced["metrics"]["lat_p50_ms"]["value"]
            traced = metrics["trace.op_p50_ms"]["value"]
            log(f"tracing overhead on the op's own span: "
                f"{(traced / base - 1) * 100:+.2f}% "
                f"({traced:.3f} ms traced vs {base:.3f} ms untraced)")

    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": bool(correct),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
