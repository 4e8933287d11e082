"""``repro-store``: result-store maintenance CLI.

The :class:`~repro.runtime.store.ResultStore` is content-addressed by
(config, bug, trace, step), so stores produced by different runs, machines
or CI shards can always be combined — the first slice of cross-run result
sharing.  Usage::

    repro-store merge SRC... DST            # fold one or more stores into DST
    repro-store info PATH...                # entry and per-shard counts
    repro-store gc PATH --keep ROSTER       # prune entries outside the roster

``merge`` copies every entry absent from DST (creating it if needed),
re-validating each payload on the way in; corrupt source entries and
entries in an older format are skipped and reported.  An entry of DST that
a run would miss on (an older format, or unreadable) is replaced by the
source's current one, and the replacements are reported on their own line.
A subsequent experiment run against the merged store re-simulates nothing
(``executed=0``) for any job either source had computed.

Every store keeps its entries in ``shard=XX/`` directories and touches
nothing else in its directory.  ``gc`` is the one way to prune a store: it
needs a keep roster — one store key per line, as written by
``repro-cluster roster`` — and removes everything else; ``--dry-run``
prints what would go.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .store import ResultStore


def _cmd_merge(args: argparse.Namespace) -> int:
    destination_path = Path(args.stores[-1])
    sources = [Path(p) for p in args.stores[:-1]]
    for source in sources:
        if not source.is_dir():
            print(f"error: source store {source} does not exist")
            return 2
    destination = ResultStore(destination_path)
    total = 0
    for source_path in sources:
        source = ResultStore(source_path)
        before = len(source)
        replaced_before = destination.stats.replaced
        try:
            merged = destination.merge_from(source)
        except ValueError as exc:  # e.g. a source that IS the destination
            print(f"error: {exc} ({source_path})")
            return 2
        replaced = destination.stats.replaced - replaced_before
        total += merged
        skipped = [
            f"{count} {reason}"
            for count, reason in (
                (source.stats.corrupt, "corrupt"),
                (source.stats.outdated, "in an older format"),
            )
            if count
        ]
        line = f"  {source_path}: merged {merged}/{before} entries"
        if skipped:
            line += f" ({', '.join(skipped)} skipped)"
        print(line)
        if replaced:
            print(
                f"  {source_path}: {replaced} of them replaced an outdated "
                f"entry of {destination_path}"
            )
    replaced = destination.stats.replaced
    print(
        f"{destination_path}: {len(destination)} entries "
        f"(+{total - replaced} merged, {replaced} replaced)"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    missing = 0
    for path in args.stores:
        if not Path(path).is_dir():
            print(f"error: {path}: not a store directory")
            missing += 1
            continue
        store = ResultStore(path)
        swept = f", {store.stats.tmp_swept} stale tmp swept" if store.stats.tmp_swept else ""
        print(f"{path}: {len(store)} entries{swept}")
        counts = store.shard_counts()
        if counts:
            widest = max(counts.values())
            print(
                f"  {len(counts)} shards occupied, "
                f"largest {widest} entr{'y' if widest == 1 else 'ies'}"
            )
        for shard in sorted(counts):
            print(f"    shard={shard}: {counts[shard]}")
    return 2 if missing else 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from ..cluster.roster import read_roster

    if not Path(args.store).is_dir():
        print(f"error: store {args.store} does not exist")
        return 2
    try:
        keep = read_roster(args.keep)
    except OSError as exc:
        print(f"error: cannot read roster {args.keep}: {exc}")
        return 2
    if not keep and not args.allow_empty_roster:
        print(
            "error: roster is empty — refusing to remove every entry "
            "(pass --allow-empty-roster to override)"
        )
        return 2
    store = ResultStore(args.store)
    before = len(store)
    removed = store.gc(keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{args.store}: {verb} {len(removed)}/{before} entries "
        f"(roster keeps {len(keep)} keys)"
    )
    if args.dry_run:
        for key in removed:
            print(f"  {key}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-store", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    merge = commands.add_parser(
        "merge", help="fold one or more source stores into a destination store"
    )
    merge.add_argument(
        "stores", nargs="+", metavar="STORE",
        help="source store directories followed by the destination (last)",
    )
    merge.set_defaults(func=_cmd_merge)

    info = commands.add_parser(
        "info", help="show entry and per-shard counts per store"
    )
    info.add_argument("stores", nargs="+", metavar="STORE")
    info.set_defaults(func=_cmd_info)

    gc = commands.add_parser(
        "gc", help="prune entries unreachable from a keep roster"
    )
    gc.add_argument("store", metavar="STORE")
    gc.add_argument(
        "--keep", required=True, metavar="ROSTER",
        help="file of keys to keep, one per line (see repro-cluster roster)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without touching the store",
    )
    gc.add_argument(
        "--allow-empty-roster", action="store_true",
        help="permit GC with an empty roster (removes every entry)",
    )
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    if args.command == "merge" and len(args.stores) < 2:
        merge.error("merge needs at least one SRC and one DST")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro-store info S | head``).  Point stdout
        # at devnull so the interpreter's own flush at exit cannot raise
        # again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
