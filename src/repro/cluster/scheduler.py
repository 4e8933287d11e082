"""The poll-loop worker scheduler behind :class:`ClusterBackend`.

Shape (after PrunScheduler in vusec/instrumentation-infra): a single
scheduling thread owns a set of worker **slots** (bounded by
``parallelmax``), a queue of :class:`ChunkTicket`\\ s and one event queue.
Each iteration of the poll loop

1. dispatches queued tickets to idle live workers in submission order — a
   chunk requeued from a lost worker goes to the head of the queue —
   spawning a new worker when every live one is busy and the slot budget
   allows;
2. waits briefly for worker events — results, worker exits, protocol
   errors — posted by one reader thread per worker connection;
3. enforces **liveness**: every worker is asked (via the protocol-v2 hello)
   to emit heartbeat frames; a worker silent past the deadline is presumed
   hung, killed, and its in-flight chunk is requeued;
4. respawns dead slots under exponential backoff, giving a slot up after
   ``max_respawns`` consecutive failed spawn attempts.

Failure semantics: losing a worker never loses work — the chunk it held
goes back to the queue (``chunks_requeued`` in
:class:`~repro.runtime.stats.EngineStats`) and re-executes elsewhere, while
results the engine already persisted stay persisted (the resumable-batch
path).  :meth:`ClusterScheduler.drain` raises
:class:`~repro.runtime.backends.base.BackendError`, naming the last loss
or spawn failure, in two cases only:

* *every* slot has permanently failed with work still queued — one
  flapping host cannot fail a sweep a healthy host can finish;
* one chunk keeps losing its worker and would be requeued more than
  ``max_respawns`` times.  A chunk that kills every worker it reaches (a
  job that sends its process ``SIGKILL``, a job the worker cannot
  unpickle) would otherwise cycle through fresh workers forever.

Chaos hook: ``REPRO_CLUSTER_CHAOS=kill:<n>`` (read by the backend) makes
the scheduler ``SIGKILL`` its own worker right after the *n*-th chunk
dispatch — deterministic mid-sweep worker death for CI and tests, driving
exactly the kill/respawn/requeue path a reclaimed cluster node would.

Timing note: this module reads ``time.monotonic`` freely (liveness
deadlines, backoff).  None of it can reach a
:class:`~repro.runtime.store.StoredResult` — workers compute results
from (config, bug, trace, step) alone — so the determinism lint
allowlists the file (``.repro-lint-allow``).
"""

from __future__ import annotations

import contextlib
import queue
import subprocess
import threading
import sys
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..runtime.backends.base import BackendError
from ..runtime.framing import (
    CHUNK,
    ERROR,
    HEARTBEAT,
    HELLO,
    PONG,
    PROTOCOL_VERSION,
    RESULT,
    SHUTDOWN,
    TRACES,
    ProtocolError,
    check_hello,
    read_frame,
    write_frame,
)
from ..runtime.stats import EngineStats

#: How long one poll-loop iteration blocks waiting for worker events.
POLL_INTERVAL = 0.1

#: First respawn delay; doubles per consecutive failed attempt.
BACKOFF_BASE = 0.25

#: Consecutive failed spawn attempts after which a slot is given up; also
#: the number of times one chunk may be requeued before its batch fails.
MAX_RESPAWNS = 5

_NEW, _LIVE, _DEAD, _FAILED, _RETIRED = "new", "live", "dead", "failed", "retired"


@dataclass
class ChunkTicket:
    """One planned chunk queued for dispatch.

    ``requeues`` counts how many times the ticket was recovered from a dead
    worker and put back at the head of the queue.
    """

    tag: int
    chunk: list = field(repr=False)
    requeues: int = 0


def spawn_worker(
    command: "list[str]", heartbeat: float
) -> "tuple[subprocess.Popen, dict]":
    """Start one ``repro-worker`` and complete the versioned handshake.

    The driver's hello asks for heartbeat frames every *heartbeat* seconds.
    Returns ``(process, the worker's hello payload)``.  On failure —
    ``OSError`` from the spawn or a broken pipe, :class:`ProtocolError` from
    the handshake — the process is killed before the error propagates.
    """
    process = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        # stderr inherited: worker tracebacks reach the driver.
    )
    try:
        write_frame(
            process.stdin,
            HELLO,
            {"protocol": PROTOCOL_VERSION, "heartbeat": heartbeat},
        )
        kind, payload = read_frame(process.stdout)
        if kind == ERROR:
            raise ProtocolError(f"worker rejected handshake: {payload}")
        if kind != HELLO:
            raise ProtocolError(f"worker sent {kind!r} instead of a handshake")
        check_hello(payload, side="worker")
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        with contextlib.suppress(OSError):  # unflushed hello to a dead pipe
            process.stdin.close()
        raise
    return process, payload


def stop_worker(process: subprocess.Popen) -> None:
    """Ask a worker to shut down (shutdown frame), then make sure it is gone."""
    try:
        if process.poll() is None and process.stdin and not process.stdin.closed:
            write_frame(process.stdin, SHUTDOWN, None)
            process.stdin.close()
    except (OSError, ValueError):  # already dead / pipe gone
        pass
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
        process.kill()
        process.wait()


class _Incarnation:
    """One spawned worker process: streams, reader thread, liveness clock."""

    _next_gen = 0
    _gen_lock = threading.Lock()

    def __init__(self, process: subprocess.Popen, label: str) -> None:
        with _Incarnation._gen_lock:
            _Incarnation._next_gen += 1
            self.gen = _Incarnation._next_gen
        self.process = process
        self.label = label
        #: Content digests already shipped to this worker process.
        self.shipped: set[str] = set()
        #: Monotonic time of the last frame received (reader thread writes,
        #: scheduler thread reads; a float store is atomic under the GIL).
        self.last_seen = time.monotonic()
        self.reader: "threading.Thread | None" = None


def _read_worker(incarnation: _Incarnation, events: "queue.Queue") -> None:
    """Reader loop for one worker connection (daemon thread).

    Posts ``("result", gen, tag, outcome)`` and ``("down", gen, reason)``
    events; heartbeat/pong frames only refresh the liveness clock.  The
    scheduler ignores events whose generation it no longer tracks, so a
    reader racing its worker's teardown is harmless.
    """
    stdout = incarnation.process.stdout
    while True:
        try:
            frame = read_frame(stdout, allow_eof=True)
        except ProtocolError as exc:
            events.put(("down", incarnation.gen, f"{incarnation.label}: {exc}"))
            return
        if frame is None:
            events.put(("down", incarnation.gen,
                        f"{incarnation.label}: connection closed"))
            return
        incarnation.last_seen = time.monotonic()
        kind, payload = frame
        if kind == RESULT:
            tag, outcome = payload
            events.put(("result", incarnation.gen, tag, outcome))
        elif kind in (HEARTBEAT, PONG):
            continue  # liveness only; the clock update above is the point
        elif kind == ERROR:
            events.put(("down", incarnation.gen,
                        f"{incarnation.label}: worker error: {payload}"))
            return
        else:
            events.put(("down", incarnation.gen,
                        f"{incarnation.label}: unexpected {kind!r} frame"))
            return


class _Slot:
    """One worker position: its incarnation (if any) and respawn bookkeeping."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = _NEW
        self.incarnation: "_Incarnation | None" = None
        #: In-flight work: the dispatched ticket and the epoch it belongs to.
        self.ticket: "ChunkTicket | None" = None
        self.ticket_epoch = -1
        #: Consecutive failed spawn attempts (reset by a successful handshake).
        self.attempts = 0
        self.next_spawn_at = 0.0
        self.ever_live = False

    @property
    def idle(self) -> bool:
        return self.state == _LIVE and self.ticket is None


def _finalize_processes(registry: "dict[int, subprocess.Popen]") -> None:
    """GC fallback: make sure no worker process outlives a dropped scheduler."""
    for process in list(registry.values()):
        try:
            process.kill()
            process.wait()
        except OSError:  # pragma: no cover - already reaped
            pass


class ClusterScheduler:
    """Elastic poll-loop scheduler over ``repro-worker`` connections.

    Parameters
    ----------
    command_factory:
        ``(slot_index) -> list[str]`` producing the worker command for the
        next spawn into that slot (every spawn and respawn calls it, so a
        slot tied to one host always goes back to that host).
    parallelmax:
        Worker slot budget; workers spawn lazily as queued work demands,
        and :meth:`resize` changes the budget mid-run (elastic grow/shrink).
    stats:
        The engine-shared :class:`EngineStats`; the scheduler owns the
        ``workers_spawned`` / ``workers_lost`` / ``workers_respawned`` /
        ``chunks_requeued`` counters.
    heartbeat / deadline:
        Liveness tuning: requested worker heartbeat interval and the
        silence threshold (seconds) past which a worker is presumed dead.
        Defaults scale from the canonical framing constants.
    max_respawns:
        Consecutive failed spawns after which a slot is given up, and the
        number of requeues after which a chunk fails its batch.
    chaos:
        Optional ``("kill", n)`` fault injection — see module docstring.
    """

    def __init__(
        self,
        command_factory,
        parallelmax: int,
        stats: "EngineStats | None" = None,
        *,
        heartbeat: float,
        deadline: float,
        backoff: float = BACKOFF_BASE,
        max_respawns: int = MAX_RESPAWNS,
        poll_interval: float = POLL_INTERVAL,
        label: str = "cluster",
        chaos: "tuple[str, int] | None" = None,
    ) -> None:
        if parallelmax < 1:
            raise ValueError("parallelmax must be >= 1")
        self.command_factory = command_factory
        self.parallelmax = parallelmax
        self.stats = stats if stats is not None else EngineStats()
        self.heartbeat = heartbeat
        self.deadline = deadline
        self.backoff = backoff
        self.max_respawns = max_respawns
        self.poll_interval = poll_interval
        self.label = label
        self._chaos = chaos
        self._slots: list[_Slot] = []
        self._by_gen: dict[int, _Slot] = {}
        self._events: "queue.Queue" = queue.Queue()
        self._queued: "deque[ChunkTicket]" = deque()
        self._traces: dict[str, object] = {}
        self._epoch = 0
        self._outstanding = 0
        self._dispatches = 0
        #: Why the last worker was lost or failed to spawn (for errors).
        self._last_failure = ""
        #: Set when a chunk used up its requeues; drain raises it.  Every
        #: batch starts clear (begin_batch).
        self._lost_chunk: "str | None" = None
        self._process_registry: dict[int, subprocess.Popen] = {}
        self._finalizer = weakref.finalize(
            self, _finalize_processes, self._process_registry
        )

    # -- engine-facing API -----------------------------------------------------

    def update_traces(self, traces: Mapping) -> None:
        self._traces.update(traces)

    def known_trace_ids(self) -> set:
        return set(self._traces)

    def live_workers(self) -> int:
        return sum(1 for slot in self._slots if slot.state == _LIVE)

    def begin_batch(self) -> None:
        """Start a fresh batch epoch: any still-in-flight result from an
        earlier (cancelled) batch is dropped on arrival instead of being
        mistaken for this batch's work."""
        self._epoch += 1
        self._lost_chunk = None

    def submit(self, ticket: ChunkTicket) -> None:
        self._queued.append(ticket)
        self._outstanding += 1

    def cancel_pending(self) -> None:
        """Drop queued work; in-flight chunks finish but their results drop."""
        self._epoch += 1
        self._queued.clear()
        self._outstanding = 0

    def resize(self, parallelmax: int) -> None:
        """Change the slot budget; shrinking retires idle surplus workers.

        Busy surplus workers finish their current chunk first — they retire
        the moment they next go idle (checked every poll iteration).
        """
        if parallelmax < 1:
            raise ValueError("parallelmax must be >= 1")
        self.parallelmax = parallelmax
        self._shrink_to_budget()

    def drain(self) -> Iterator[tuple]:
        """The poll loop: yield ``(tag, ChunkOutcome)`` until the batch drains."""
        while self._outstanding > 0:
            self._dispatch_ready()
            completed = self._pump_events()
            self._outstanding -= len(completed)
            self._check_liveness()
            self._shrink_to_budget()
            # Completed chunks go out first, so the engine persists them
            # even when this iteration also found the batch unfinishable.
            yield from completed
            if self._outstanding > 0:
                self._check_wedged()

    def close(self) -> None:
        """Shut every worker down (idempotent); a later dispatch respawns."""
        self._epoch += 1
        self._queued.clear()
        self._outstanding = 0
        for slot in self._slots:
            if slot.incarnation is not None:
                self._shutdown_incarnation(slot)
            slot.state = _RETIRED
        self._slots = []
        self._by_gen = {}
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break

    # -- spawning and teardown -------------------------------------------------

    def _spawn_into(self, slot: _Slot) -> bool:
        """Spawn + handshake a worker for *slot*; schedule a retry on failure."""
        label = f"{self.label}#{slot.index}"
        try:
            process, _ = spawn_worker(
                self.command_factory(slot.index), self.heartbeat
            )
        except (OSError, ProtocolError) as exc:
            self._spawn_failed(slot, f"{label}: spawn failed: {exc}")
            return False
        incarnation = _Incarnation(process, label)
        incarnation.reader = threading.Thread(
            target=_read_worker,
            args=(incarnation, self._events),
            daemon=True,
            name=f"repro-cluster-{incarnation.label}",
        )
        incarnation.reader.start()
        self._process_registry[incarnation.gen] = process
        slot.incarnation = incarnation
        slot.state = _LIVE
        slot.ticket = None
        slot.attempts = 0
        self._by_gen[incarnation.gen] = slot
        self.stats.workers_spawned += 1
        if slot.ever_live:
            self.stats.workers_respawned += 1
        slot.ever_live = True
        return True

    def _spawn_failed(self, slot: _Slot, reason: str) -> None:
        slot.incarnation = None
        self._last_failure = reason
        slot.attempts += 1
        if slot.attempts > self.max_respawns:
            slot.state = _FAILED
            print(
                f"[cluster] slot {slot.index} failed permanently after "
                f"{slot.attempts} attempts: {reason}",
                file=sys.stderr, flush=True,
            )
            return
        delay = self.backoff * (2 ** (slot.attempts - 1))
        slot.state = _DEAD
        slot.next_spawn_at = time.monotonic() + delay
        print(
            f"[cluster] slot {slot.index} spawn failed ({reason}); "
            f"retry in {delay:.2f}s",
            file=sys.stderr, flush=True,
        )

    def _shutdown_incarnation(self, slot: _Slot) -> None:
        """Politely stop a live worker (shutdown frame, then the hammer)."""
        incarnation, slot.incarnation = slot.incarnation, None
        if incarnation is None:
            return
        self._by_gen.pop(incarnation.gen, None)
        self._process_registry.pop(incarnation.gen, None)
        stop_worker(incarnation.process)
        if incarnation.reader is not None:
            incarnation.reader.join(timeout=5)

    def _slot_down(self, slot: _Slot, reason: str) -> None:
        """A live worker was lost: kill remnants, requeue its chunk, back off."""
        incarnation, slot.incarnation = slot.incarnation, None
        if incarnation is not None:
            self._by_gen.pop(incarnation.gen, None)
            self._process_registry.pop(incarnation.gen, None)
            try:
                incarnation.process.kill()
                incarnation.process.wait()
            except OSError:  # pragma: no cover - already reaped
                pass
        self.stats.workers_lost += 1
        self._last_failure = reason
        ticket, slot.ticket = slot.ticket, None
        outcome = ""
        if ticket is not None and slot.ticket_epoch == self._epoch:
            if ticket.requeues >= self.max_respawns:
                self._lost_chunk = (
                    f"chunk {ticket.tag} lost its worker {ticket.requeues + 1} "
                    f"times (requeues capped at max_respawns="
                    f"{self.max_respawns}); last loss: {reason}"
                )
                outcome = f"; chunk {ticket.tag} out of requeues"
            else:
                ticket.requeues += 1
                self.stats.chunks_requeued += 1
                self._queued.appendleft(ticket)
                outcome = f"; requeued chunk {ticket.tag}"
        print(
            f"[cluster] worker {self.label}#{slot.index} lost ({reason}){outcome}",
            file=sys.stderr, flush=True,
        )
        slot.attempts += 1
        if slot.attempts > self.max_respawns:
            slot.state = _FAILED
        else:
            slot.state = _DEAD
            slot.next_spawn_at = time.monotonic() + self.backoff * (
                2 ** (slot.attempts - 1)
            )

    # -- the poll loop ---------------------------------------------------------

    def _active_slots(self) -> "list[_Slot]":
        return [s for s in self._slots if s.state not in (_RETIRED,)]

    def _dispatch_ready(self) -> None:
        """Hand queued tickets to idle workers, spawning/respawning as needed."""
        now = time.monotonic()
        for slot in self._slots:
            if (
                slot.state == _DEAD
                and self._queued
                and now >= slot.next_spawn_at
            ):
                self._spawn_into(slot)
        while self._queued:
            idle = [slot for slot in self._slots if slot.idle]
            if not idle and len(self._active_slots()) < self.parallelmax:
                slot = _Slot(len(self._slots))
                self._slots.append(slot)
                if self._spawn_into(slot):
                    idle = [slot]
            if not idle:
                return
            self._dispatch(idle[0], self._queued.popleft())

    def _dispatch(self, slot: _Slot, ticket: ChunkTicket) -> None:
        incarnation = slot.incarnation
        assert incarnation is not None
        slot.ticket = ticket
        slot.ticket_epoch = self._epoch
        self._dispatches += 1
        try:
            missing = {job.trace_id for _, job in ticket.chunk} - incarnation.shipped
            if missing:
                write_frame(
                    incarnation.process.stdin,
                    TRACES,
                    {tid: self._traces[tid] for tid in sorted(missing)},
                )
                incarnation.shipped |= missing
                self.stats.traces_shipped += len(missing)
            write_frame(incarnation.process.stdin, CHUNK, (ticket.tag, ticket.chunk))
        except (OSError, ValueError) as exc:
            # The worker died under the dispatch; _slot_down requeues.
            self._slot_down(slot, f"dispatch failed: {exc}")
            return
        if self._chaos is not None and self._chaos[0] == "kill":
            if self._dispatches >= self._chaos[1]:
                self._chaos = None
                print(
                    f"[cluster] chaos: SIGKILL worker {incarnation.label} "
                    f"after dispatch {self._dispatches}",
                    file=sys.stderr, flush=True,
                )
                try:
                    incarnation.process.kill()
                except OSError:  # pragma: no cover - already gone
                    pass

    def _pump_events(self) -> "list[tuple]":
        """Wait briefly for worker events; return completed current-batch work."""
        completed: list[tuple] = []
        try:
            event = self._events.get(timeout=self.poll_interval)
        except queue.Empty:
            return completed
        while True:
            kind = event[0]
            if kind == "result":
                _, gen, tag, outcome = event
                slot = self._by_gen.get(gen)
                if slot is not None:
                    current = (
                        slot.ticket is not None
                        and slot.ticket_epoch == self._epoch
                        and slot.ticket.tag == tag
                    )
                    slot.ticket = None
                    if current:
                        completed.append((tag, outcome))
                    # else: leftover from a cancelled batch — drop it, the
                    # worker itself is fine and now idle again.
            elif kind == "down":
                _, gen, reason = event
                slot = self._by_gen.get(gen)
                if slot is not None:
                    self._slot_down(slot, reason)
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                return completed

    def _check_liveness(self) -> None:
        """Kill workers silent past the deadline (their chunks requeue)."""
        now = time.monotonic()
        for slot in self._slots:
            if slot.state != _LIVE or slot.incarnation is None:
                continue
            silent = now - slot.incarnation.last_seen
            if silent > self.deadline:
                self._slot_down(
                    slot, f"no heartbeat for {silent:.1f}s (deadline {self.deadline}s)"
                )

    def _shrink_to_budget(self) -> None:
        """Retire surplus idle workers when the budget shrank."""
        surplus = len(self._active_slots()) - self.parallelmax
        if surplus <= 0:
            return
        for slot in reversed(self._slots):
            if surplus <= 0:
                break
            if slot.state in (_RETIRED,) or slot.ticket is not None:
                continue
            if slot.state == _LIVE:
                self._shutdown_incarnation(slot)
            slot.state = _RETIRED
            surplus -= 1

    def _check_wedged(self) -> None:
        """Raise when outstanding work can never complete (only called with
        ``_outstanding > 0``)."""
        if self._lost_chunk is not None:
            raise BackendError(self._lost_chunk)
        in_flight = any(
            s.ticket is not None and s.ticket_epoch == self._epoch
            for s in self._slots
        )
        if not self._queued and not in_flight:
            # Every outstanding chunk is either queued or running (losing a
            # worker requeues its chunk); neither means bookkeeping broke.
            # Fail loudly rather than poll forever.
            raise BackendError(
                f"cluster scheduler wedged: {self._outstanding} chunks "
                "outstanding with nothing queued or running"
            )
        active = self._active_slots()
        if (
            self._queued
            and active
            and len(active) >= self.parallelmax
            and all(s.state == _FAILED for s in active)
        ):
            raise BackendError(
                f"all {len(active)} cluster worker slots failed permanently "
                f"(max_respawns={self.max_respawns} exceeded on each); "
                f"last failure: {self._last_failure}"
            )

    # -- health reporting ------------------------------------------------------

    def describe(self) -> dict:
        """Snapshot for the CLI/report line: slot states and counters."""
        states: dict[str, int] = {}
        for slot in self._slots:
            states[slot.state] = states.get(slot.state, 0) + 1
        return {
            "parallelmax": self.parallelmax,
            "slots": states,
            "queued": len(self._queued),
            "dispatches": self._dispatches,
        }
