#!/usr/bin/env python3
"""Repository benchmark: build the stack from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the ssr library, the ssr_node daemon and the
ssr_perfbench program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild incrementally. Build output goes to stderr.

The program's report goes to stdout. Its last line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer metrics; BENCHMARK.json
lists both sets. Each run also leaves a record with the host fingerprint
in <build>/results/, for perfbench/compare.py. The exit code is 0 only when
the build succeeded and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("idle-closure", "transient-storm", "client-churn", "udp-fleet")
# Whole-run limit; the program must finish well inside it.
RUN_LIMIT_S = 175


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir: Path) -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "ssr_perfbench", "ssr_node"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def source_id() -> str:
    """The git commit when the checkout has one, else a digest of the tree."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    tops = [ROOT / "src", ROOT / "tools", ROOT / "perfbench",
            ROOT / "CMakeLists.txt"]
    for top in tops:
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    if not build(bdir):
        return 1
    out = bdir / "perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "ssr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(out),
           "--node-bin", str(bdir / "ssr" / "ssr_node"),
           "--source-id", source_id()]
    started = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stdout.write(p.stdout)
        print("perfbench: ssr_perfbench printed no result (exit %d)"
              % p.returncode, file=sys.stderr)
        return p.returncode or 1

    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "elapsed_s": round(time.monotonic() - started, 3),
              "fingerprint": fingerprint, "result": result}
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
