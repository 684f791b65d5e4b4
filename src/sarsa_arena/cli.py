"""Command line entry points: train, report and inspect."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .harness import (
    CampaignSettings,
    format_report,
    load_games_csv,
    load_lives_csv,
    run_campaign,
    summarize_level,
)
from .snapshots import SnapshotError, read_snapshot
from .svg import render_campaign_plots
from .weapons import ACTION_LABELS


def non_negative_int(text: str) -> int:
    """argparse type for counts: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def level_or_all(text: str) -> int | str:
    """argparse type for --level: an int, or "all"."""
    return text if text == "all" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarsa-arena",
        description="Deathmatch simulator with an online-learning shooter bot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run learning campaigns")
    train.add_argument(
        "--level", default="all", type=level_or_all,
        help="an [opponent:N] level of the config, or all (default: all)",
    )
    train.add_argument("--games", type=int, default=30,
                       help="games per level (default: 30)")
    train.add_argument("--minutes", type=float, default=3.0,
                       help="game length in simulated minutes (default: 3.0)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", type=Path, default=Path("out"))
    train.add_argument("--config", type=Path, default=None,
                       help="INI file overriding bundled defaults")
    train.add_argument("--snapshot-every", type=int, default=50,
                       help="retain a snapshot every N lives, or none at 0 (default: 50)")
    train.add_argument("--events", action="store_true",
                       help="stream an events.log per campaign")
    train.add_argument("--no-plots", action="store_true")

    report = sub.add_parser("report", help="summarize campaign CSVs")
    report.add_argument("dir", type=Path)

    inspect = sub.add_parser("inspect", help="describe a Q-table snapshot")
    inspect.add_argument("snapshot", type=Path)
    inspect.add_argument("--top", type=non_negative_int, default=5,
                         help="strongest entries to list per category")
    return parser


def cmd_train(args) -> int:
    try:
        sim = load_config(args.config)
        levels = sorted(sim.profiles) if args.level == "all" else [args.level]
        # Campaign checks the flags' ranges before it writes anything.
        runs = [CampaignSettings(level=level, games=args.games, minutes=args.minutes,
                                 seed=args.seed, out_dir=args.out / f"level{level}",
                                 snapshot_every=args.snapshot_every, record_events=args.events)
                for level in levels]
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summaries = []
    for settings in runs:
        out_dir = settings.out_dir
        try:
            result = run_campaign(sim, settings)
            if not args.no_plots:
                render_campaign_plots(result.games, out_dir)
        except OSError as exc:  # --out is a file, or not writable
            print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:  # a game with too many ticks, or under one
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summary = summarize_level(result.lives, result.games)
        summaries.append(summary)
        print(f"level {settings.level}: {settings.games} games -> {out_dir}")
    print(format_report(summaries))
    return 0


def _find_campaign_dirs(root: Path) -> list[Path]:
    if (root / "lives.csv").exists():
        return [root]
    return sorted(d for d in root.glob("level*") if (d / "lives.csv").exists())


def cmd_report(args) -> int:
    if not args.dir.exists():
        print(f"error: no such directory: {args.dir}", file=sys.stderr)
        return 1
    dirs = _find_campaign_dirs(args.dir)
    if not dirs:
        print(f"error: no lives.csv found under {args.dir}", file=sys.stderr)
        return 1
    summaries = []
    for d in dirs:
        try:
            lives = load_lives_csv(d / "lives.csv")
            games = load_games_csv(d / "games.csv")
            if games:
                summaries.append(summarize_level(lives, games))
        except (OSError, KeyError, ValueError) as exc:
            # A missing file or column, a ragged row, a cell that does not
            # parse, or games without lives.
            print(f"error: cannot report on {d}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    if not summaries:
        print(f"error: campaign data under {args.dir} is empty", file=sys.stderr)
        return 1
    print(format_report(summaries))
    return 0


def cmd_inspect(args) -> int:
    try:
        tset = read_snapshot(args.snapshot)
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: cannot read {args.snapshot}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = tset.cfg
    print(f"lives completed: {tset.lives}")
    print(f"alpha={cfg.alpha!r} gamma={cfg.gamma!r} lambda={cfg.lam!r}")
    for cat, table in tset.tables.items():
        nonzero = {k: v for k, v in table.q.items() if v != 0.0}
        print(f"{cat.value}: {len(nonzero)} learned state-action values")
        labels = ACTION_LABELS[cat]
        best = sorted(nonzero.items(), key=lambda kv: -kv[1])[: args.top]
        for (state, action), value in best:
            print(f"  state {state:4d} {labels[action]:<8s} {value!r}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "report": cmd_report,
        "inspect": cmd_inspect,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
