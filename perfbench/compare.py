#!/usr/bin/env python3
"""Compare two sets of perfbench runs, or summarize one.

    python3 perfbench/compare.py --summarize RESULTS_DIR > summary.json
    python3 perfbench/compare.py BASE HEAD

RESULTS_DIR, BASE and HEAD are directories of the run records that
perfbench/run.py leaves in <build>/results/, or summary files written by
--summarize (perfbench/baseline.json is one). The comparison refuses to
run when the two sides were measured on different hosts: the host part of
the fingerprint (nproc, CPU model, compiler, build type) must match, because
timings are only comparable on one host.

For every workload and end-to-end metric it prints both medians, the
change in the metric's bad direction, and a verdict against the bound in
BENCHMARK.json: "regressed" when HEAD is worse by more than the bound,
"unresolved" when BASE's own quartile spread exceeds the bound, else "ok".
Per-layer medians from traced runs are listed without verdicts. Exit code:
0 no regression, 1 a regression, 2 refused or unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type")


def summarize(records):
    host = None
    sources = set()
    groups = {}
    for rec in records:
        fp = rec.get("fingerprint", {})
        this_host = {k: fp.get(k) for k in HOST_KEYS}
        if host is None:
            host = this_host
        elif host != this_host:
            raise SystemExit("records come from different hosts: %s vs %s"
                             % (host, this_host))
        sources.add(fp.get("source", "unknown"))
        kind = "per_layer" if rec["trace"] else "end_to_end"
        wl = groups.setdefault(kind, {}).setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            wl.setdefault(name, []).append(m["value"])
    out = {"fingerprint": dict(host or {}, source=sorted(sources)),
           "end_to_end": {}, "per_layer": {}}
    for kind, workloads in groups.items():
        for w, metrics in workloads.items():
            for name, vals in metrics.items():
                q = (statistics.quantiles(vals, n=4) if len(vals) >= 2
                     else [vals[0]] * 3)
                out[kind].setdefault(w, {})[name] = {
                    "median": statistics.median(vals), "q1": q[0], "q3": q[2],
                    "n": len(vals)}
    return out


def load(path):
    p = Path(path)
    if p.is_dir():
        records = [json.loads(f.read_text()) for f in sorted(p.glob("*.json"))]
        if not records:
            raise SystemExit("no run records in %s" % p)
        return summarize(records)
    return json.loads(p.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summarize", metavar="RESULTS_DIR")
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    args = ap.parse_args()
    if args.summarize:
        json.dump(load(args.summarize), sys.stdout, indent=1)
        print()
        return 0
    if not (args.base and args.head):
        ap.error("give BASE and HEAD, or --summarize DIR")

    base, head = load(args.base), load(args.head)
    bh = {k: base["fingerprint"].get(k) for k in HOST_KEYS}
    hh = {k: head["fingerprint"].get(k) for k in HOST_KEYS}
    if bh != hh:
        print("refusing to compare timings across host fingerprints:\n"
              "  base %s\n  head %s" % (bh, hh), file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}

    regressed = False
    print("%-16s %-20s %14s %14s %8s %7s  %s"
          % ("workload", "metric", "base", "head", "worse", "bound", "verdict"))
    for w in sorted(set(base["end_to_end"]) | set(head["end_to_end"])):
        for name, m in spec.items():
            b = base["end_to_end"].get(w, {}).get(name)
            h = head["end_to_end"].get(w, {}).get(name)
            if b is None or h is None:
                print("%-16s %-20s missing on one side" % (w, name))
                continue
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (h["median"] - b["median"]) / b["median"]
            spread = (b["q3"] - b["q1"]) / b["median"]
            if worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-16s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%  %s"
                  % (w, name, b["median"], h["median"], 100 * worse,
                     100 * m["bound"], verdict))
    for w in sorted(set(base["per_layer"]) & set(head["per_layer"])):
        for name in sorted(base["per_layer"][w]):
            h = head["per_layer"][w].get(name)
            if h is not None:
                print("%-16s %-30s %14.6g %14.6g"
                      % (w, name, base["per_layer"][w][name]["median"],
                         h["median"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
