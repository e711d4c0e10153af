"""Persistent shard-worker pool: spawn once, reuse across deployments.

The BSP backend forked a fresh pool inside every :class:`ParallelNetwork`
and tore it down with the network, so every deployment in a churn loop paid
fork + context rebuild + BDD rewarm.  A :class:`WorkerPool` decouples the
processes from any one deployment: the pool is spawned once (per
:class:`~repro.sim.runner.TulkunRunner`), the first deployment forks with
live copy-on-write state, and later deployments *reset* the existing
workers — rebuilding planes and verifiers on each worker's already-warm BDD
context (node table, op caches and atom index all survive).

The pool also owns the transport: one command pipe per worker.  Every
command and reply is a pickled tuple on it, DVM messages included (as
:mod:`repro.core.wire` bytes).

Crash detection: any pipe failure marks the pool ``broken`` and raises
:class:`~repro.errors.SimulationError` naming the worker and its exit
status.  A broken pool refuses further commands; the runner responds by
discarding it and spawning a fresh one on the next deployment.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError

__all__ = ["WorkerPool"]


class WorkerPool:
    """A long-lived pool of forked verifier workers."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.spawned = False
        self.broken = False
        self.closed = False
        #: Device -> wid map recorded at spawn; later deployments must match.
        self.assignment: Optional[Dict[str, int]] = None
        #: Compatibility fingerprint set by whoever manages pool reuse.
        self.profile: Optional[dict] = None
        #: Deployments served (1 fork + n-1 resets); exposed for benchmarks.
        self.generations = 0
        self._procs: List = []
        self._conns: List = []

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def spawn(self, inits: List[dict], target, assignment: Dict[str, int]) -> None:
        """Fork one worker per init dict (live-object inheritance)."""
        if self.spawned:
            raise SimulationError("worker pool is already spawned")
        if self.closed:
            raise SimulationError("worker pool is closed")
        if len(inits) != self.num_workers:
            raise SimulationError(
                f"expected {self.num_workers} init payloads, got {len(inits)}"
            )
        mp = multiprocessing.get_context("fork")
        self.assignment = dict(assignment)
        for init in inits:
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(target=target, args=(child_conn, init), daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self.spawned = True
        self.generations = 1
        for wid in range(self.num_workers):
            reply = self.recv(wid)
            if reply[0] != "ready":
                raise SimulationError(
                    f"worker {wid} failed to initialize:\n{reply[1]}"
                )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _fail(self, wid: int, cause: BaseException) -> SimulationError:
        self.broken = True
        proc = self._procs[wid] if wid < len(self._procs) else None
        code = None
        if proc is not None:
            proc.join(timeout=0.2)
            code = proc.exitcode
        detail = (
            f"exit code {code}" if code is not None else "no exit status yet"
        )
        return SimulationError(
            f"worker {wid} died ({detail}: {type(cause).__name__}); the pool "
            f"is broken and must be respawned"
        )

    def send(self, wid: int, command: tuple) -> None:
        if self.broken:
            raise SimulationError("worker pool is broken (a worker died)")
        try:
            self._conns[wid].send(command)
        except (OSError, BrokenPipeError, EOFError, ValueError) as exc:
            raise self._fail(wid, exc)

    def recv(self, wid: int) -> tuple:
        try:
            return self._conns[wid].recv()
        except (OSError, BrokenPipeError, EOFError) as exc:
            raise self._fail(wid, exc)

    def wait(self, wids: Sequence[int], timeout: Optional[float] = None) -> List[int]:
        """Block until at least one of ``wids`` has a reply ready."""
        by_conn = {id(self._conns[wid]): wid for wid in wids}
        try:
            ready = _conn_wait([self._conns[wid] for wid in wids], timeout)
        except (OSError, EOFError) as exc:
            raise self._fail(min(wids), exc)
        return sorted(by_conn[id(conn)] for conn in ready)

    # ------------------------------------------------------------------
    # Fault-injection and lifecycle
    # ------------------------------------------------------------------
    def kill_worker(self, wid: int) -> None:
        """Hard-kill one worker (crash-detection tests)."""
        self._procs[wid].terminate()
        self._procs[wid].join(timeout=5)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if not self.spawned:
            return
        for conn in self._conns:
            if not self.broken:
                try:
                    conn.send(("exit",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
        deadline = time.monotonic() + 5
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - hung-worker backstop
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown race
                pass

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
