"""Launch one ``ServeDaemon`` for a wire workload (run as a child process).

Prints ``{"port": N}`` once bound, serves until a client sends
``shutdown``, then prints one exit line with what only this process can
know: the wall time of ``StreamSession.start()`` (the burst), its peak RSS
and - for the reference instance - the verdicts a direct replay of the op
cycle through ``TulkunRunner`` produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.serve import ServeDaemon, StreamSession

from benchmarks.e2e.phases import replay_reference
from benchmarks.e2e.streams import RuleRenderer, make_plan
from benchmarks.e2e.targets import peak_rss_mb, pin_to
from benchmarks.e2e.workloads import WORKLOADS, build_instance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--core", type=int, default=-1)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    pin_to(args.core if args.core >= 0 else None)

    workload = WORKLOADS[args.workload]
    instance = build_instance(workload)
    session = StreamSession(instance.runner, instance.rules)
    daemon = ServeDaemon(session)  # default coalesce window, limit, queue
    exit_line = {}

    # serve_forever() deploys through session.start(); time it from outside.
    start_session = session.start

    def timed_start():
        begin = time.perf_counter()
        hello = start_session()
        exit_line["burst_verify_s"] = time.perf_counter() - begin
        if args.reference:
            # This instance serves no updates: its runner doubles as the
            # reference the served instance's verdicts are compared with.
            plan = make_plan(workload, instance, args.seed)
            reference = replay_reference(
                instance.runner, plan, RuleRenderer(instance)
            )
            exit_line["reference"] = dataclasses.asdict(reference)
        return hello

    session.start = timed_start
    _host, port = daemon.bind()
    print(json.dumps({"port": port}), flush=True)
    daemon.serve_forever()
    exit_line["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(exit_line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
