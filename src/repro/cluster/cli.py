"""``repro-cluster``: operate the elastic cluster execution backend.

Subcommands::

    repro-cluster health [--workers N] [--heartbeat S]
        Spawn N workers, complete the v2 handshake, ping each one and wait
        for a heartbeat frame — a liveness smoke test for the machinery the
        ``cluster:N`` backend relies on.  Exits non-zero if any worker
        fails to answer.

    repro-cluster roster --scale SCALE [--trace-dir D] [--output FILE]
        Write the store-key roster of everything the scale's detection
        sweeps can produce (one key per line) — the keep-set for
        ``repro-store gc``.

    repro-cluster plan --scale SCALE [--workers N]
        Dry-run the chunk planner over the scale's core sweep with N worker
        slots and print the chunks in dispatch order (no worker started,
        no simulation executed).

Sweeps themselves run through the ordinary entry points with the backend
spec — ``repro-experiments --backend cluster:4`` or
``REPRO_BACKEND=cluster:4`` — this CLI covers the operational side.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..runtime.framing import (
    HEARTBEAT,
    PING,
    PONG,
    PROTOCOL_VERSION,
    ProtocolError,
    read_frame,
    write_frame,
)


def _cmd_health(args) -> int:
    from ..runtime.worker import local_worker_command
    from .scheduler import spawn_worker, stop_worker

    failures = 0
    for index in range(args.workers):
        label = f"worker#{index}"
        process = None
        try:
            process, payload = spawn_worker(local_worker_command(), args.heartbeat)
            write_frame(process.stdin, PING, index)
            saw_pong = saw_heartbeat = False
            # repro: allow(wall-clock): CLI health-probe timeout only
            deadline = time.monotonic() + max(5.0, 5 * args.heartbeat)
            while not (saw_pong and saw_heartbeat):
                # repro: allow(wall-clock): CLI health-probe timeout only
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        f"no {'pong' if not saw_pong else 'heartbeat'} "
                        f"within {max(5.0, 5 * args.heartbeat):.1f}s"
                    )
                kind, reply = read_frame(process.stdout)
                if kind == PONG and reply.get("token") == index:
                    saw_pong = True
                elif kind == HEARTBEAT:
                    saw_heartbeat = True
            print(
                f"{label}: ok (pid {payload.get('pid')}, "
                f"python {payload.get('python')}, protocol v{PROTOCOL_VERSION}, "
                f"heartbeat every {args.heartbeat}s)"
            )
        except (ProtocolError, OSError) as exc:
            failures += 1
            print(f"{label}: FAILED — {exc}", file=sys.stderr)
        finally:
            if process is not None:
                stop_worker(process)
    print(f"repro-cluster health: {args.workers - failures}/{args.workers} workers ok")
    return 1 if failures else 0


def _cmd_roster(args) -> int:
    from ..experiments.common import ExperimentContext
    from .roster import roster_keys, write_roster

    with ExperimentContext(
        scale=args.scale,
        jobs=1,
        trace_dir=args.trace_dir,
        trace_format=args.trace_format,
    ) as context:
        keys = roster_keys(context)
        if args.output and args.output != "-":
            with open(args.output, "w", encoding="utf-8") as handle:
                count = write_roster(keys, handle)
            print(f"repro-cluster roster: {count} keys -> {args.output}")
        else:
            write_roster(keys, sys.stdout)
    return 0


def _cmd_plan(args) -> int:
    from ..detect.dataset import SimulationCache
    from ..experiments.common import ExperimentContext
    from ..runtime.engine import JobEngine, _job_cost

    with ExperimentContext(scale=args.scale, jobs=1) as context:
        cache = SimulationCache(
            step_cycles=context.scale.step_cycles, engine=context.engine
        )
        designs = context.core_designs()["I"]
        jobs = [
            cache._job(probe, design, None)
            for design in designs
            for probe in context.probes
        ]
        traces = dict(cache._registry.traces)
    # An N-slot local pool starts no process before its first batch, so it
    # sizes chunks exactly as an N-worker sweep does without spawning any.
    with JobEngine(jobs=args.workers) as planner:
        chunks = planner._plan_chunks(list(enumerate(jobs)), traces)
    print(
        f"repro-cluster plan: scale={args.scale} workers={args.workers} "
        f"-> {len(chunks)} chunks"
    )
    for position, chunk in enumerate(chunks):
        cost = sum(_job_cost(job, traces) for _, job in chunk)
        print(f"  {position:3d}: jobs={len(chunk)} cost={cost}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cluster", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    health = commands.add_parser(
        "health", help="spawn workers and verify handshake/ping/heartbeat"
    )
    health.add_argument("--workers", type=int, default=2)
    health.add_argument("--heartbeat", type=float, default=0.2,
                        help="requested heartbeat interval (seconds)")
    health.set_defaults(func=_cmd_health)

    roster = commands.add_parser(
        "roster", help="write the store-key keep-set for repro-store gc"
    )
    roster.add_argument("--scale", default="smoke",
                        choices=["smoke", "small", "full"])
    roster.add_argument("--trace-dir", default=None,
                        help="build the roster over ingested on-disk traces")
    roster.add_argument("--trace-format", default=None,
                        choices=["champsim", "gem5", "k6"])
    roster.add_argument("--output", "-o", default="-",
                        help="output file (default: stdout)")
    roster.set_defaults(func=_cmd_roster)

    plan = commands.add_parser(
        "plan", help="dry-run chunk planning (no worker, no simulation)"
    )
    plan.add_argument("--scale", default="smoke",
                      choices=["smoke", "small", "full"])
    plan.add_argument("--workers", type=int, default=2,
                      help="worker slots the chunks are sized for")
    plan.set_defaults(func=_cmd_plan)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
