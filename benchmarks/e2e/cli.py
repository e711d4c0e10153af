"""One command for the whole benchmark: ``python -m benchmarks.e2e``.

Without ``--workload`` it runs every workload of ``BENCHMARK.json`` in a
fresh worker process each and prints every end-to-end metric by name and
unit with ``ops_attempted`` / ``ops_failed``; the exit code is non-zero on
any oracle mismatch.  With one ``--workload`` the last line of standard
output is the object the benchmark driver reads.

``--trace`` adds the per-layer table (a separate, traced run);
``--smoke`` is a seconds-long bitrot check; ``--aa N`` measures the
benchmark's own noise and prints ``NOISE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Dict

from benchmarks.e2e import ROOT, child_env

WORKER_TIMEOUT = 175.0  # the driver allows a run 180 s
SMOKE_SECONDS = 3.0     # ~1 s per phase


def contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               smoke: bool = False) -> Dict[str, object]:
    """One workload run in a fresh process; raises if it produced no result."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    # Its own session, so that a worker that overruns can be stopped
    # together with any daemon child it has started.
    worker = subprocess.Popen(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = worker.communicate(timeout=WORKER_TIMEOUT)
    except BaseException:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker for {workload} exited with code {worker.returncode}"
        )
    return json.loads(lines[-1])


def driver_line(spec: Dict[str, object], run: Dict[str, object],
                trace: int) -> Dict[str, object]:
    """A worker result in the shape the driver reads, checked against the
    contract: exactly the declared metrics, each a finite number."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = run["metrics"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    for m in declared:
        value = metrics[m["name"]]
        if not isinstance(value, (int, float)) or value != value:
            raise RuntimeError(f"{m['name']} is not a number: {value!r}")
    return {
        "correct": run["ops_failed"] == 0,
        "attempted": run["ops_attempted"],
        "failed": run["ops_failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def print_run(spec: Dict[str, object], run: Dict[str, object], trace: int) -> None:
    stamp = run["provenance"]
    print(f"== {run['workload']}  seed {stamp['seed']}  "
          f"stream {stamp['stream_sha256'][:12]}  "
          f"{'traced' if trace else 'end to end'}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        print(f"  {m['name']:<40} {run['metrics'][m['name']]:>14.4f} {m['unit']}")
    samples = run["samples"]
    print(f"  samples: {samples['single']} single updates, "
          f"{samples['link']} link events, {samples['batch_ops']} batched ops")
    print(f"  ops_attempted {run['ops_attempted']}  ops_failed {run['ops_failed']}")
    for note in run["failures"]:
        print(f"  FAILED: {note}")
    if trace:
        print(f"  chrome trace: {run['trace_file']}")
    print(f"  provenance: {json.dumps(stamp, sort_keys=True)}")
    sys.stdout.flush()


# ----------------------------------------------------------------------
def noise_report(spec: Dict[str, object], runs: int, seed: int,
                 seconds: float) -> int:
    """Two interleaved sets of ``runs`` runs of this same tree, one seed per
    run as the driver does; prints the table committed as NOISE.md."""
    names = [w["name"] for w in spec["workloads"]]
    sets = {"A": {n: [] for n in names}, "B": {n: [] for n in names}}
    for i in range(runs):
        for label in ("A", "B"):
            for name in names:
                run = run_worker(name, seed + i, seconds, 0)
                if run["ops_failed"]:
                    raise RuntimeError(f"{name}: {run['failures']}")
                sets[label][name].append(run["metrics"])
                print(f"# set {label} run {i + 1}/{runs} {name} "
                      f"{json.dumps(run['metrics'])}", file=sys.stderr)
    return print_noise(spec, sets, runs, seed, seconds)


def print_noise(spec, sets, runs: int, seed: int, seconds: float) -> int:
    names = [w["name"] for w in spec["workloads"]]
    print("# Benchmark noise: two interleaved sets of runs of one tree\n")
    print(f"`python -m benchmarks.e2e --aa {runs} --seed {seed} "
          f"--seconds {seconds:g}` on {os.cpu_count()} cores, seeds "
          f"{seed}..{seed + runs - 1} in both sets, run as A1 B1 A2 B2 ...  "
          "`spread` is (q3 - q1) / median of a set "
          "(`statistics.quantiles(values, n=4)`); `diff` is how much worse "
          "set B's median is than set A's.  PASS: both spreads and the diff "
          "are within the bound (the spread of `setup_s` is reported, not "
          "gated).\n")
    print("| workload | metric | bound | A median [q1, q3] | B median [q1, q3] "
          "| spread A | spread B | diff | |")
    print("|---|---|---|---|---|---|---|---|---|")
    failed = 0
    for name in names:
        for m in spec["end_to_end"]:
            a = statistics.quantiles([r[m["name"]] for r in sets["A"][name]], n=4)
            b = statistics.quantiles([r[m["name"]] for r in sets["B"][name]], n=4)
            spread_a = (a[2] - a[0]) / a[1]
            spread_b = (b[2] - b[0]) / b[1]
            worse = (b[1] - a[1]) / a[1] * (1 if m["better"] == "lower" else -1)
            gated = [worse] if m["name"] == "setup_s" else [worse, spread_a, spread_b]
            ok = all(x <= m["bound"] for x in gated)
            failed += not ok
            print(f"| {name} | {m['name']} ({m['unit']}) | {m['bound']} "
                  f"| {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}] "
                  f"| {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] "
                  f"| {spread_a:.3f} | {spread_b:.3f} | {worse:+.3f} "
                  f"| {'PASS' if ok else 'FAIL'} |")
    print(f"\n{failed} of {len(names) * len(spec['end_to_end'])} rows fail.")
    print("\n## Every run\n")
    print("| workload | metric | set | " + " | ".join(
        f"seed {seed + i}" for i in range(runs)) + " |")
    print("|---|---|---|" + "---|" * runs)
    for name in names:
        for m in spec["end_to_end"]:
            for label in ("A", "B"):
                values = " | ".join(
                    f"{r[m['name']]:.4g}" for r in sets[label][name])
                print(f"| {name} | {m['name']} | {label} | {values} |")
    return 1 if failed else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks.e2e: src/repro is missing - this benchmark builds "
              "nothing and needs the repository's sources", file=sys.stderr)
        return 2
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__)
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=13,
                        help="selects the op stream (default 13)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics (traced run)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s phases, R=1, both runs, schema check")
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="noise report from two interleaved sets of N runs")
    args = parser.parse_args(argv)
    if args.aa:
        return noise_report(spec, args.aa, args.seed, args.seconds)

    chosen = args.workload or names
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    traces = (0, 1) if args.smoke else (args.trace,)
    failed = 0
    line = None
    for name in chosen:
        for trace in traces:
            run = run_worker(name, args.seed, seconds, trace, args.smoke)
            line = driver_line(spec, run, trace)
            print_run(spec, run, trace)
            failed += run["ops_failed"]
    if len(chosen) == 1 and len(traces) == 1:
        print(json.dumps(line))
    else:
        print(f"{len(chosen)} workloads, {failed} failed ops")
    return 1 if failed else 0
