#!/usr/bin/env python3
"""Steadiness check: runs every workload in two sets of runs and prints,
per set, each end-to-end metric's median and quartiles.

Usage (from the root of the repository):

    python3 perfbench/steady.py

Every workload of BENCHMARK.json runs in two sets of ten runs of
run_seconds each. Each run is its own process (perfbench/run.py), with its
own --seed; the two sets use disjoint seeds (1001-1010 and 2001-2010), and
the workloads are interleaved seed by seed so slow drift of the host hits
every workload alike. For every metric the spread of a set is
(q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4); the drift is how much worse the second
set's median is than the first's, as a share of the first. The check fails
when a run is not correct, a spread or a drift exceeds the metric's bound
in BENCHMARK.json, or the share of failed operations differs between runs.
The raw results go to .bench_build/perfbench/steady.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2
OUT = os.path.join(".bench_build", "perfbench", "steady.json")


def host_info():
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    build = next((l for l in lines if l.startswith("build: ")), "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "ok": False,
                "elapsed_s": elapsed}
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, ok=True, elapsed_s=elapsed,
                  build=build[len("build: "):])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    host, results = host_info(), []
    print(f"host: nproc={host['nproc']} cpu={host.get('cpu', '?')} "
          f"machine={host['machine']}", flush=True)
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1000 * (s + 1) + i + 1
            for w in workloads:
                r = run_once(w, seed, seconds)
                r["set"] = s
                results.append(r)
                status = "ok" if r["ok"] and r.get("correct") else "NOT OK"
                print(f"set {s + 1} seed {seed} {w}: {status} "
                      f"attempted={r.get('attempted')} "
                      f"failed={r.get('failed')} ({r['elapsed_s']:.1f} s)",
                      flush=True)
    builds = sorted({r.get("build", "") for r in results if r.get("build")})
    for b in builds:
        print(f"build: {b}")
    os.makedirs(os.path.dirname(os.path.abspath(OUT)), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump({"host": host, "builds": builds, "results": results},
                  f, indent=1)

    good = True
    for w in workloads:
        runs = [r for r in results if r["workload"] == w]
        if not all(r["ok"] and r.get("correct") for r in runs):
            print(f"{w}: a run failed or was not correct")
            good = False
            continue
        f0, a0 = runs[0]["failed"], runs[0]["attempted"]
        share_ok = all(r["failed"] * a0 == f0 * r["attempted"] for r in runs)
        fractions = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: failed share {fractions} "
              f"{'same in every run' if share_ok else 'DIFFERS'}")
        good &= share_ok
        print(f"  {'metric':<14}{'set':>4}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>7}{'drift':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["set"] == s]
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                drift = ""
                if s == 1 and medians[0]:
                    worse = (med - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                    if worse > bound:
                        good = False
                        drift += "!"
                flag = ""
                if sp > bound:
                    good = False
                    flag = "!"
                print(f"  {name:<14}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{sp:>8.3f}{flag:1}{bound:>7.2f}"
                      f"{drift:>8}")
    print("\nsteady" if good else "\nNOT steady")
    print(f"raw results: {OUT}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
