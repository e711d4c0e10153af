"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``verify``
    One-shot centralized verification of a specification against a topology
    and FIB snapshot::

        python -m repro verify --topology net.topo --fib net.fib \
                               --spec invariants.tulkun

``simulate``
    Full distributed verification (on-device verifiers + DVM protocol over
    the discrete-event simulator), reporting verdicts, timing and message
    counts.

``replay``
    Re-execute a trace recorded with ``simulate --trace``: the run replays
    the recorded message schedule (chaos fates included) byte-identically
    and verifies verdicts, violation regions and transport summary against
    the recording.  Also renders the trace's forensic reports
    (``--provenance``, ``--timeline``, ``--perfetto``).

``explore``
    Model-check a *family* of fault scenarios (link failures, device
    crash/restart windows, maintenance drains, rolling upgrades):
    systematically execute every interleaving, prune the ones the
    commutativity results prove equivalent (partial-order reduction,
    disable with ``--no-por``), and emit a minimized, replay-certified
    ``tulkun-trace-v1`` counterexample for every distinct failure::

        python -m repro explore --topology net.topo --fib net.fib \
                                --spec invariants.tulkun \
                                --fail-link S:A --fail-link B:D \
                                --report explore.json --traces-dir cex/

``dpvnet``
    Print the DPVNet the planner builds for each invariant (nodes, edges,
    per-device task counts) without verifying anything.

``datasets``
    List the built-in datasets with their statistics.

All file formats are the plain-text ones documented in
:mod:`repro.topology.fileformat` (topology), :mod:`repro.dataplane.fib`
(FIBs) and :mod:`repro.core.language` (invariants).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.bdd import PacketSpaceContext
from repro.core.language import parse_invariants
from repro.core.planner import Planner
from repro.dataplane.fib import parse_fib_text
from repro.topology.fileformat import parse_topology_text

__all__ = ["main"]


def _load(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _format_packet(packet: dict) -> str:
    """Human-readable witness packet (IPs as dotted quads)."""
    from repro.bdd.fields import int_to_ip

    parts = []
    for name, value in packet.items():
        if name.endswith("_ip"):
            parts.append(f"{name}={int_to_ip(value)}")
        else:
            parts.append(f"{name}={value}")
    return ", ".join(parts)


_PROFILE_COLUMNS = (
    "ops_and",
    "ops_or",
    "ops_diff",
    "ops_not",
    "ops_ite",
    "cache_hits",
    "cache_misses",
    "peak_nodes",
    "live_nodes",
    "gc_runs",
    "gc_reclaimed",
)


def _natural_key(name: str):
    """Sort key splitting digit runs, so ``worker2`` < ``worker10``."""
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", name)
    ]


def _print_engine_table(engines: dict) -> None:
    """Render BDD-engine profiles (one row per manager) for ``--profile``."""
    if not engines:
        print("engine profile: no engines recorded")
        return
    header = f"{'engine':<10}" + "".join(f"{c:>13}" for c in _PROFILE_COLUMNS)
    print("engine profile:")
    print(f"  {header}")
    for name in sorted(engines, key=_natural_key):
        snap = engines[name]
        row = f"{name:<10}" + "".join(
            f"{snap.get(c, 0):>13}" for c in _PROFILE_COLUMNS
        )
        print(f"  {row}")


_ATOM_COLUMNS = (
    "atoms",
    "splits",
    "merges",
    "compactions",
    "atomize_calls",
    "atomize_hits",
    "pred_cache",
)


def _print_atom_table(atom_indexes: dict) -> None:
    """Render atom-index profiles (one row per index) for ``--profile``."""
    if not atom_indexes:
        return
    header = f"{'index':<10}" + "".join(f"{c:>14}" for c in _ATOM_COLUMNS)
    print("atom-index profile:")
    print(f"  {header}")
    for name in sorted(atom_indexes, key=_natural_key):
        snap = atom_indexes[name]
        row = f"{name:<10}" + "".join(
            f"{snap.get(c, 0):>14}" for c in _ATOM_COLUMNS
        )
        print(f"  {row}")


def _load_inputs(args):
    ctx = PacketSpaceContext()
    topology = parse_topology_text(_load(args.topology))
    planes = parse_fib_text(ctx, _load(args.fib))
    invariants = parse_invariants(ctx, _load(args.spec))
    # Devices appearing in the topology but not the FIB get empty planes.
    from repro.dataplane.device import DevicePlane

    for dev in topology.devices:
        planes.setdefault(dev, DevicePlane(dev, ctx))
    return ctx, topology, planes, invariants


def cmd_verify(args) -> int:
    ctx, topology, planes, invariants = _load_inputs(args)
    planner = Planner(topology, ctx)
    failures = 0
    for invariant in invariants:
        if args.validate:
            planner.validate(invariant)
        result = planner.verify(invariant, planes)
        print(result.summary())
        for violation in result.violations[: args.max_violations]:
            packet = violation.example_packet()
            detail = violation.message or f"counts={list(violation.counts)}"
            print(f"  [{violation.ingress}] {detail}")
            if packet and not violation.message:
                print(f"    witness packet: {_format_packet(packet)}")
        if not result.holds:
            failures += 1
    if args.profile:
        _print_engine_table({"main": ctx.mgr.profile()})
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    from repro.sim import ChaosConfig, TulkunRunner

    chaos = None
    if args.chaos:
        try:
            chaos = ChaosConfig.parse(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    tracer = None
    if args.trace and args.backend != "serial":
        # Record/replay needs the full message schedule, which only the
        # serial channel captures; --perfetto works on both backends.
        print(
            "error: --trace requires --backend serial", file=sys.stderr
        )
        return 2
    if args.trace or args.perfetto:
        from repro.telemetry import Tracer

        tracer = Tracer()
    ctx, topology, planes, invariants = _load_inputs(args)
    try:
        runner = TulkunRunner(
            topology,
            ctx,
            invariants,
            cpu_scale=args.cpu_scale,
            backend=args.backend,
            workers=args.workers,
            gc_threshold=args.gc_threshold,
            predicate_index=args.predicate_index,
            chaos=chaos,
            tracer=tracer,
        )
    except ValueError as exc:  # e.g. --chaos with --backend process
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Fresh rules inside the runner: re-created to avoid reuse of ids.
    rules = _fresh_rules(planes)
    try:
        result = runner.burst_update(rules)
        clock = "wall" if args.backend == "process" else "simulated"
        print(
            f"verification time: {result.verification_time * 1e3:.3f} ms "
            f"({clock})"
        )
        print(f"events: {result.events}, DVM messages: {result.messages}, "
              f"bytes: {result.bytes_sent}")
        if args.backend == "process":
            network = runner.network
            print(
                f"workers: {network.num_workers}, "
                f"cut links: {network.cut_links}, "
                f"cross-worker messages: {network.metrics.routed_messages}, "
                f"effective parallelism: "
                f"{network.metrics.effective_parallelism():.2f}"
            )
        if chaos is not None:
            summary = runner.network.transport_summary()
            print(
                "chaos: "
                f"retransmits={summary['retransmits']}, "
                f"dup_drops={summary['dup_drops']}, "
                f"reorder_buffered={summary['reorder_buffered']}, "
                f"channel_dropped={summary.get('channel_dropped', 0)}, "
                f"unreachable_flows={summary['unreachable_flows']}"
            )
        failures = 0
        for name, holds in sorted(result.holds.items()):
            status = result.statuses.get(
                name, "HOLDS" if holds else "VIOLATED"
            )
            print(f"  {name}: {status}")
            if status != "HOLDS":
                failures += 1
                if status == "VIOLATED":
                    for violation in runner.network.violations(name)[: args.max_violations]:
                        print(f"    {violation}")
        if args.profile:
            _print_engine_table(runner.network.metrics.engines)
            _print_atom_table(runner.network.metrics.atom_indexes)
        if args.metrics_out:
            metrics_doc = runner.network.metrics.to_dict()
            summary = getattr(runner.network, "transport_summary", None)
            metrics_doc["transport_summary"] = (
                {k: int(v) for k, v in sorted(summary().items())}
                if summary is not None
                else {}
            )
            Path(args.metrics_out).write_text(
                json.dumps(metrics_doc, indent=1) + "\n", encoding="utf-8"
            )
            print(f"metrics written to {args.metrics_out}")
        if tracer is not None:
            if args.trace:
                from repro.telemetry import TraceFile

                trace = TraceFile.from_run(
                    runner,
                    tracer,
                    inputs={
                        "topology": _load(args.topology),
                        "fib": _load(args.fib),
                        "spec": _load(args.spec),
                    },
                )
                trace.save(args.trace)
                print(f"trace written to {args.trace}")
            if args.perfetto:
                from repro.telemetry import write_chrome_trace

                write_chrome_trace(
                    args.perfetto,
                    tracer.events,
                    metadata={"predicate_index": args.predicate_index},
                )
                print(f"perfetto trace written to {args.perfetto}")
        return 1 if failures else 0
    finally:
        runner.close()


def cmd_replay(args) -> int:
    from repro.errors import ReplayError
    from repro.telemetry import (
        TraceFile,
        convergence_timeline,
        replay_trace,
        violation_provenance,
        write_chrome_trace,
    )

    try:
        trace = TraceFile.load(args.trace)
    except (OSError, ReplayError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Forensic reports render from the *recorded* event log — they describe
    # the original run regardless of any predicate-index override below.
    recorded_events = trace.trace_events()
    if args.timeline:
        Path(args.timeline).write_text(
            convergence_timeline(recorded_events), encoding="utf-8"
        )
        print(f"convergence timeline written to {args.timeline}")
    if args.provenance:
        Path(args.provenance).write_text(
            violation_provenance(recorded_events), encoding="utf-8"
        )
        print(f"violation provenance written to {args.provenance}")
    if args.perfetto:
        write_chrome_trace(
            args.perfetto,
            recorded_events,
            metadata={"predicate_index": trace.predicate_index},
        )
        print(f"perfetto trace written to {args.perfetto}")

    mode = args.predicate_index or trace.predicate_index
    try:
        runner = replay_trace(trace, predicate_index=args.predicate_index)
    except ReplayError as exc:
        print(f"replay FAILED: {exc}", file=sys.stderr)
        return 1
    try:
        mismatches = trace.verify(runner)
        for name, status in sorted(runner.statuses().items()):
            print(f"  {name}: {status}")
        if mismatches:
            print(
                f"replay DIVERGED ({len(mismatches)} mismatch(es), "
                f"predicate_index={mode}):"
            )
            for line in mismatches:
                print(f"  {line}")
            return 1
        print(
            f"replay OK: outcomes byte-identical to the recording "
            f"(predicate_index={mode})"
        )
        return 0
    finally:
        runner.close()


def cmd_explore(args) -> int:
    from repro.dataplane.device import DevicePlane
    from repro.dataplane.rule import Rule
    from repro.explore import FaultElement, ScenarioFamily, explore_family
    from repro.sim import ChaosConfig, ReliableChannel, TulkunRunner

    chaos = None
    if args.chaos:
        try:
            chaos = ChaosConfig.parse(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    elements: List[FaultElement] = []
    for spec in args.fail_link:
        ends = tuple(spec.split(":"))
        if len(ends) != 2:
            print(f"error: --fail-link wants A:B, got {spec!r}", file=sys.stderr)
            return 2
        elements.append(FaultElement("link", ends, recover=not args.no_recover))
    for dev in args.crash_device:
        elements.append(
            FaultElement("device", (dev,), recover=not args.no_recover)
        )
    for dev in args.drain_device:
        elements.append(
            FaultElement("drain", (dev,), recover=not args.no_recover)
        )
    for dev in args.upgrade_device:
        elements.append(FaultElement("upgrade", (dev,)))
    if not elements:
        print(
            "error: give at least one fault element (--fail-link, "
            "--crash-device, --drain-device, --upgrade-device)",
            file=sys.stderr,
        )
        return 2

    topo_text = _load(args.topology)
    fib_text = _load(args.fib)
    spec_text = _load(args.spec)

    def harness(tracer=None, channel=None):
        # A fresh context/deployment per scenario: outcomes are functions
        # of the scenario alone, never of exploration order.
        ctx = PacketSpaceContext()
        topology = parse_topology_text(topo_text)
        planes = parse_fib_text(ctx, fib_text)
        invariants = parse_invariants(ctx, spec_text)
        for dev in topology.devices:
            planes.setdefault(dev, DevicePlane(dev, ctx))
        if channel is None and chaos is None and args.transport == "reliable":
            channel = ReliableChannel()
        runner = TulkunRunner(
            topology,
            ctx,
            invariants,
            cpu_scale=args.cpu_scale,
            gc_threshold=args.gc_threshold,
            predicate_index=args.predicate_index,
            chaos=None if channel is not None else chaos,
            tracer=tracer,
            channel=channel,
        )
        rules = {
            dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
            for dev, plane in planes.items()
        }
        return runner, rules

    family = ScenarioFamily(
        elements=tuple(elements), max_faults=args.max_faults
    )
    try:
        report = explore_family(
            family,
            harness,
            por=not args.no_por,
            budget=args.budget,
            minimize=not args.no_minimize,
            max_counterexamples=args.max_counterexamples,
            trace_inputs={
                "topology": topo_text,
                "fib": fib_text,
                "spec": spec_text,
            },
        )
    except ValueError as exc:  # family too large, bad element, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"family: {family.describe()}")
    print(
        f"exhaustive: {report.exhaustive_scenarios} scenarios, "
        f"explored: {report.explored}, pruned: {report.pruned} "
        f"({report.prune_ratio:.1%}), skipped: {report.skipped}"
    )
    print(
        f"violated: {report.violated}, "
        f"distinct outcomes: {len(report.outcome_keys())}"
    )
    traces_dir = Path(args.traces_dir) if args.traces_dir else None
    if traces_dir is not None:
        traces_dir.mkdir(parents=True, exist_ok=True)
    for index, cex in enumerate(report.counterexamples):
        script = (
            " ; ".join(step.describe() for step in cex.steps) or "<baseline>"
        )
        certified = "replay-certified" if cex.replay_ok else "REPLAY DIVERGED"
        print(f"counterexample {index}: {script} ({certified})")
        if traces_dir is not None:
            path = traces_dir / f"cex-{index}.json"
            cex.trace.save(str(path))
            cex.path = str(path)
            print(f"  trace written to {path}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json(), indent=1) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.report}")
    if any(not cex.replay_ok for cex in report.counterexamples):
        print("error: a counterexample failed replay certification",
              file=sys.stderr)
        return 2
    return 1 if report.violated else 0


def _fresh_rules(planes):
    """Re-create the parsed rules so ids are private to this deployment."""
    from repro.dataplane.rule import Rule

    return {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }


def _parse_host_port(spec: str):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def cmd_serve(args) -> int:
    from repro.serve import ServeDaemon, StreamSession, serve_stdio
    from repro.sim import TulkunRunner

    ctx, topology, planes, invariants = _load_inputs(args)
    tracer = None
    if args.perfetto:
        from repro.telemetry import Tracer

        tracer = Tracer()
    try:
        runner = TulkunRunner(
            topology,
            ctx,
            invariants,
            cpu_scale=args.cpu_scale,
            backend=args.backend,
            workers=args.workers,
            gc_threshold=args.gc_threshold,
            predicate_index=args.predicate_index,
            tracer=tracer,
            slices="auto" if args.slices else None,
        )
        session = StreamSession(
            runner,
            _fresh_rules(planes),
            max_pending_per_tenant=args.max_pending_per_tenant,
            max_slices_per_tenant=args.max_slices_per_tenant,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.listen:
            try:
                host, port = _parse_host_port(args.listen)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            daemon = ServeDaemon(
                session,
                host=host,
                port=port,
                coalesce_window=args.coalesce_window,
                coalesce_limit=args.coalesce_limit,
                queue_limit=args.queue_limit,
            )
            bound_host, bound_port = daemon.bind()
            print(f"listening on {bound_host}:{bound_port}", file=sys.stderr)
            sys.stderr.flush()
            daemon.serve_forever()
        else:
            serve_stdio(
                session,
                sys.stdin,
                sys.stdout,
                coalesce_limit=args.coalesce_limit,
            )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if tracer is not None and args.perfetto:
            from repro.telemetry import write_chrome_trace

            write_chrome_trace(
                args.perfetto,
                tracer.events,
                metadata={"predicate_index": args.predicate_index},
            )
            print(f"perfetto trace written to {args.perfetto}",
                  file=sys.stderr)
    return 0


def cmd_serve_client(args) -> int:
    from repro.serve.client import format_report, run_script

    try:
        host, port = _parse_host_port(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.script == "-":
        script = sys.stdin.readlines()
    else:
        script = Path(args.script).read_text(encoding="utf-8").splitlines()
    try:
        report = run_script(host, port, script, timeout=args.timeout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(report, verbose=args.verbose))
    if report.errors:
        print(f"{len(report.errors)} error frame(s) received", file=sys.stderr)
    if args.expect_delta and not report.deltas:
        print("error: no delta frame received", file=sys.stderr)
        return 1
    return 0


def cmd_dpvnet(args) -> int:
    ctx, topology, _planes, invariants = _load_inputs(args)
    planner = Planner(topology, ctx)
    for invariant in invariants:
        net = planner.build_dpvnet(invariant)
        tasks = planner.decompose(invariant, net)
        print(f"{invariant.name}: {net.stats()}")
        if args.verbose:
            for nid in sorted(net.nodes):
                node = net.nodes[nid]
                children = ", ".join(
                    net.nodes[c].label for c in node.children
                )
                marker = " *" if any(node.accept) else ""
                print(f"  {node.label}{marker} -> [{children}]")
        per_device = {
            dev: task.num_nodes for dev, task in sorted(tasks.tasks.items())
        }
        print(f"  tasks per device: {per_device}")
    return 0


def cmd_datasets(_args) -> int:
    from repro.datasets import build_dataset, dataset_names

    print(f"{'name':<10} {'kind':<5} {'devices':>8} {'links':>6} {'rules':>7}")
    for name in dataset_names():
        ds = build_dataset(name, pair_limit=4)
        stats = ds.stats()
        print(
            f"{stats['name']:<10} {stats['kind']:<5} {stats['devices']:>8} "
            f"{stats['links']:>6} {stats['rules']:>7}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tulkun: distributed, on-device data plane verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--topology", required=True, help="topology text file")
        p.add_argument("--fib", required=True, help="FIB text file")
        p.add_argument("--spec", required=True, help="invariant spec file")
        p.add_argument("--max-violations", type=int, default=5)

    p_verify = sub.add_parser("verify", help="one-shot centralized verification")
    add_io(p_verify)
    p_verify.add_argument(
        "--validate", action="store_true",
        help="run the §3 packet-space/destination consistency check",
    )
    p_verify.add_argument(
        "--profile", action="store_true",
        help="print BDD-engine statistics (op counts, cache hit rates, GC)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="distributed verification (simulator)")
    add_io(p_sim)
    p_sim.add_argument("--cpu-scale", type=float, default=1.0)
    p_sim.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="serial = discrete-event simulator (modelled clock); "
             "process = multiprocessing worker pool (wall clock)",
    )
    p_sim.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for --backend process (default: cores, max 4)",
    )
    p_sim.add_argument(
        "--profile", action="store_true",
        help="print per-engine BDD statistics after the run",
    )
    p_sim.add_argument(
        "--gc-threshold", type=int, default=None,
        help="BDD node-table size that triggers a garbage-collection sweep "
             "(default: GC disabled)",
    )
    p_sim.add_argument(
        "--chaos", default=None, metavar="SEED,P_LOSS[,P_DUP[,P_REORDER]]",
        help="inject transport faults (serial backend): seeded per-link "
             "drop/duplicate/reorder probabilities; DVM messages then ride "
             "the seq/ack retransmission layer and converged verdicts stay "
             "byte-identical to the reliable run",
    )
    p_sim.add_argument(
        "--predicate-index", choices=("atoms", "bdd"), default="atoms",
        help="carrier the verifier's region algebra runs on: 'atoms' = "
             "packed integer masks over the dynamic atomic-predicate index "
             "(production), 'bdd' = the oracle carrier (same code on raw "
             "BDD predicates, for parity checks); verdicts are "
             "byte-identical either way",
    )
    p_sim.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the run (causal event log + full message schedule, "
             "chaos fates included) as a self-contained JSON trace that "
             "'repro replay' re-executes byte-identically",
    )
    p_sim.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="export the run's event log as Chrome trace-event JSON "
             "(loadable in Perfetto / chrome://tracing): one track per "
             "device, DVM messages as flow arrows",
    )
    p_sim.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the full metrics-collector state (per-device counters, "
             "engine/atom-index profiles, transport summary) as JSON",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a recorded trace and verify byte-identity",
    )
    p_replay.add_argument("trace", help="trace file from 'simulate --trace'")
    p_replay.add_argument(
        "--predicate-index", choices=("atoms", "bdd"), default=None,
        help="override the recorded region carrier ('bdd' = the oracle "
             "carrier); outcomes must be byte-identical either way",
    )
    p_replay.add_argument(
        "--provenance", default=None, metavar="PATH",
        help="write the violation-provenance report (causal chain from each "
             "violated verdict back through the CIB updates it depends on)",
    )
    p_replay.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="write the per-invariant convergence timeline (plain text)",
    )
    p_replay.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="export the recorded event log as Chrome trace-event JSON",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_exp = sub.add_parser(
        "explore",
        help="model-check a fault-scenario family (POR + certified replay)",
    )
    add_io(p_exp)
    p_exp.add_argument(
        "--fail-link", action="append", default=[], metavar="A:B",
        help="add a link-failure fault element (repeatable)",
    )
    p_exp.add_argument(
        "--crash-device", action="append", default=[], metavar="DEV",
        help="add a device crash/restart fault element (repeatable)",
    )
    p_exp.add_argument(
        "--drain-device", action="append", default=[], metavar="DEV",
        help="add a maintenance-drain fault element (repeatable)",
    )
    p_exp.add_argument(
        "--upgrade-device", action="append", default=[], metavar="DEV",
        help="add a rolling-upgrade window (drain-crash-restart-restore) "
             "fault element (repeatable)",
    )
    p_exp.add_argument(
        "--no-recover", action="store_true",
        help="fault elements do not recover (no link_up/restart/restore "
             "steps; upgrades always run their full window)",
    )
    p_exp.add_argument(
        "--max-faults", type=int, default=2,
        help="max concurrently active fault elements per scenario "
             "(default 2)",
    )
    p_exp.add_argument(
        "--no-por", action="store_true",
        help="disable partial-order reduction (exhaustive enumeration)",
    )
    p_exp.add_argument(
        "--budget", type=int, default=None,
        help="cap on executed scenarios; the rest are counted as skipped",
    )
    p_exp.add_argument(
        "--no-minimize", action="store_true",
        help="emit failing scenarios as-is instead of greedily dropping "
             "fault elements first",
    )
    p_exp.add_argument(
        "--max-counterexamples", type=int, default=5,
        help="certify at most this many counterexamples (one per distinct "
             "failing outcome, default 5)",
    )
    p_exp.add_argument(
        "--transport", choices=("bare", "reliable"), default="reliable",
        help="'reliable' (default) arms the lossless seq/ack transport so "
             "crash windows degrade to UNKNOWN honestly; 'bare' delivers "
             "DVM messages directly",
    )
    p_exp.add_argument(
        "--chaos", default=None, metavar="SEED,P_LOSS[,P_DUP[,P_REORDER]]",
        help="explore under seeded transport faults (implies the "
             "retransmitting transport)",
    )
    p_exp.add_argument(
        "--cpu-scale", type=float, default=0.0,
        help="per-operation CPU cost scale; 0 (default) makes exploration "
             "purely event-ordered and fully deterministic",
    )
    p_exp.add_argument("--gc-threshold", type=int, default=None)
    p_exp.add_argument(
        "--predicate-index", choices=("atoms", "bdd"), default="atoms",
    )
    p_exp.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full exploration report (family, coverage, every "
             "scenario's verdicts, counterexamples) as JSON",
    )
    p_exp.add_argument(
        "--traces-dir", default=None, metavar="DIR",
        help="write each counterexample as a replayable tulkun-trace-v1 "
             "file (cex-N.json) into this directory",
    )
    p_exp.set_defaults(func=cmd_explore)

    p_serve = sub.add_parser(
        "serve",
        help="always-on verification daemon (stream updates, get deltas)",
    )
    p_serve.add_argument("--topology", required=True, help="topology text file")
    p_serve.add_argument("--fib", required=True, help="FIB text file")
    p_serve.add_argument("--spec", required=True, help="invariant spec file")
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the tulkun-serve-v1 protocol on a TCP socket (port 0 "
             "picks a free port, printed to stderr); default is a "
             "deterministic stdin/stdout session",
    )
    p_serve.add_argument(
        "--coalesce-window", type=float, default=0.05, metavar="SECONDS",
        help="socket mode: quiet time after the first buffered event before "
             "an epoch fires (default 0.05s)",
    )
    p_serve.add_argument(
        "--coalesce-limit", type=int, default=64, metavar="N",
        help="buffered events that force an epoch regardless of the window "
             "(default 64)",
    )
    p_serve.add_argument("--cpu-scale", type=float, default=1.0)
    p_serve.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="serial = discrete-event simulator (also the only backend for "
             "crash/restart ops); process = multiprocessing worker pool",
    )
    p_serve.add_argument("--workers", type=int, default=None)
    p_serve.add_argument("--gc-threshold", type=int, default=None)
    p_serve.add_argument(
        "--predicate-index", choices=("atoms", "bdd"), default="atoms",
    )
    p_serve.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="export the serving-epoch span log as Chrome trace-event JSON "
             "on shutdown",
    )
    p_serve.add_argument(
        "--slices", action="store_true",
        help="declare tenants: group invariants into tenant slices by the "
             "tenant/name prefix convention, so delta frames carry the "
             "touched tenant list and per-tenant admission applies (routing "
             "to touched slices is always on; without this flag every "
             "invariant is its own slice)",
    )
    p_serve.add_argument(
        "--max-pending-per-tenant", type=int, default=None, metavar="N",
        help="admission control: reject (tenant-backlog) requests pushing "
             "one tenant past N un-drained events; needs --slices",
    )
    p_serve.add_argument(
        "--max-slices-per-tenant", type=int, default=None, metavar="N",
        help="admission control: cap the invariants one tenant slice may "
             "hold (tenant-quota on invariant add)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="socket mode: outbound frames buffered per client before "
             "drop-and-flag backpressure kicks in (default 256)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "serve-client",
        help="stream a request script to a running serve daemon",
    )
    p_client.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="daemon address (from 'serve --listen')",
    )
    p_client.add_argument(
        "--script", default="-", metavar="PATH",
        help="newline-JSON request script ('-' = stdin); a shutdown op is "
             "appended when the script has none",
    )
    p_client.add_argument(
        "--expect-delta", action="store_true",
        help="exit 1 unless at least one delta frame arrives (CI smoke)",
    )
    p_client.add_argument("--timeout", type=float, default=60.0)
    p_client.add_argument(
        "--verbose", action="store_true", help="dump every received frame",
    )
    p_client.set_defaults(func=cmd_serve_client)

    p_net = sub.add_parser("dpvnet", help="print planner output (DPVNet + tasks)")
    add_io(p_net)
    p_net.add_argument("--verbose", action="store_true")
    p_net.set_defaults(func=cmd_dpvnet)

    p_ds = sub.add_parser("datasets", help="list built-in datasets")
    p_ds.set_defaults(func=cmd_datasets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
