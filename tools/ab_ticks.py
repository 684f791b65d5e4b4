#!/usr/bin/env python3
"""Drift-cancelling A/B comparison of two checkouts' tick rates and start-up.

    python3 tools/ab_ticks.py --base PARENT_CHECKOUT --change CHECKOUT

Hands two checkouts the same small units of work: single ``frozen-eval``
lives (one seed of ``harness.evaluate_policy``: a stored level-1 policy
played greedily or at random in a fresh World, capped at 30 simulated
seconds, 900 ticks at the bundled 30 Hz),
single one-minute level-5 games (a one-game campaign that writes its
events.log and a snapshot every 5 lives, as the benchmark's train-l5
workload does) and single ``frozen-eval`` start-ups (one run of
``perfbench/setup_probe.py frozen-eval POLICY`` in a fresh interpreter; its
wall time is the seconds the probe reports, the benchmark's setup_s, and
its CPU time and peak RSS those of the whole interpreter, read from
``os.wait4``).  Each side runs them in a warm worker process that imports
``sarsa_arena`` from its checkout's ``src/``.

Every worker process runs at a speed of its own, a few percent off its
twin's, so the units run in blocks of BLOCK_UNITS, each block on a fresh
pair of workers.  The side whose worker starts first and runs the block's
first unit first alternates from block to block; within a block each unit
runs on both sides back to back, the side that goes first alternating from
unit to unit (ABBA), so that the host's drift, which moves in phases of
seconds to minutes, meets both sides alike.  Both sides must report
identical lives (every LifeStats of a frozen-eval life, every LifeRecord of
a game) for every unit, or the comparison stops with exit code 1; a
start-up has no output to compare.  Unit seeds and the bootstrap's stream
derive from SEED.

For each kind of unit it prints the median over units of base time over
change time (above 1 means the change is faster), with a 95% percentile
bootstrap interval of that median, in process CPU time and in wall time;
for start-ups, the same for base over change peak RSS (above 1 means the
change's start-up peaks lower).
The bootstrap resamples whole blocks, then units within each drawn block,
so the interval covers the spread between worker processes as well as
between units.  This follows Kalibera and Jones, "Rigorous benchmarking in
reasonable time" (ISMM 2013).  Running a checkout against itself (an A/A
run) shows the noise floor of the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Units per block, each block on a fresh pair of worker processes.
BLOCK_UNITS = 25
# Units run on both sides at the start of each block, untimed, to warm the
# block's workers.
WARMUP_UNITS = 2
BOOTSTRAP_RESAMPLES = 2000
# What a worker's reply may measure, each compared as base over change.
MEASURES = ("cpu_s", "wall_s", "peak_rss_mb")
SEED = 1
POLICY = "perfbench/data/policy-l1-s7.rlsq"
SETUP_PROBE = "perfbench/setup_probe.py"
# What a worker loads from its checkout.
CHECKOUT_FILES = ("src/sarsa_arena/__init__.py", POLICY, SETUP_PROBE)


# ---------------------------------------------------------------------------
# Worker side: runs in its checkout's interpreter, one JSON line per unit.


def _level5_game(sim, seed: int) -> list[str]:
    from sarsa_arena import harness

    with tempfile.TemporaryDirectory() as out:
        result = harness.run_campaign(sim, harness.CampaignSettings(
            level=5, games=1, minutes=1.0, seed=seed, out_dir=Path(out),
            snapshot_every=5, record_events=True,
        ))
    return [repr(life) for life in result.lives]


def _start_up(checkout: Path) -> tuple[float, float, float]:
    """One frozen-eval start-up in a fresh interpreter: (the interpreter's
    CPU seconds, the seconds setup_probe.py reports, the interpreter's peak
    RSS in MB).  The probe's own resource use comes from os.wait4: the
    ru_maxrss of RUSAGE_CHILDREN is the largest of all reaped children's."""
    cmd = [sys.executable, SETUP_PROBE, "frozen-eval", POLICY]
    with subprocess.Popen(
        cmd, cwd=checkout, env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out)
    cpu = usage.ru_utime + usage.ru_stime
    return cpu, float(out.split()[-1]), usage.ru_maxrss / 1024.0


def worker(checkout: Path) -> int:
    sys.path.insert(0, str(checkout / "src"))
    from sarsa_arena import arena, config, harness, snapshots

    # Loaded once, untimed, as perfbench loads them once per repetition.
    sim = config.load_config()
    policy = snapshots.read_snapshot(checkout / POLICY)
    for request in sys.stdin:
        unit = json.loads(request)
        if unit["kind"] == "frozen-eval start-up":
            cpu, wall, rss = _start_up(checkout)
            reply = {"cpu_s": cpu, "wall_s": wall, "peak_rss_mb": rss, "lines": []}
        else:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if unit["kind"] == "frozen-eval":
                controller_cls = getattr(arena, unit["controller"])
                lives = harness.evaluate_policy(sim, policy, controller_cls, [unit["seed"]])
                lines = [repr(life) for life in lives]
            else:
                lines = _level5_game(sim, unit["seed"])
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            reply = {"cpu_s": cpu, "wall_s": wall, "lines": lines}
        print(json.dumps(reply), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Comparing side: starts the workers and hands them units.


class Side:
    """One checkout's worker process."""

    def __init__(self, checkout: Path) -> None:
        self.checkout = checkout
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout)],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, unit: dict) -> dict:
        self.proc.stdin.write(json.dumps(unit) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker for {self.checkout} exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def resample(blocks: list[list[float]], rng: random.Random) -> list[float]:
    """One bootstrap draw: as many blocks as there are, drawn with
    replacement, then as many units as each drawn block holds, drawn with
    replacement from that block."""
    return [
        ratio for block in rng.choices(blocks, k=len(blocks))
        for ratio in rng.choices(block, k=len(block))
    ]


def bootstrap_median_ci(blocks: list[list[float]], rng: random.Random) -> tuple[float, float]:
    """95% percentile bootstrap interval of the median of the ratios in
    `blocks`, resampled by `resample`."""
    medians = sorted(
        statistics.median(resample(blocks, rng)) for _ in range(BOOTSTRAP_RESAMPLES)
    )
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def units(lives: int, games: int, setups: int = 0) -> dict[str, list[dict]]:
    """The units of each kind: lives alternate greedy and random play, and
    start-ups are numbered."""
    controllers = ("GreedyController", "RandomController")
    return {
        "frozen-eval": [
            {"kind": "frozen-eval", "seed": SEED * 1000 + i, "controller": controllers[i % 2]}
            for i in range(lives)
        ],
        "level-5 game": [{"kind": "level-5 game", "seed": SEED + i} for i in range(games)],
        "frozen-eval start-up": [{"kind": "frozen-eval start-up", "run": i} for i in range(setups)],
    }


def compare(base: Path, change: Path, unit_list: list[dict], start) -> dict:
    """Base-over-change ratios per unit of each of MEASURES that the replies
    carry (peak_rss_mb only a start-up's), by block of BLOCK_UNITS units:
    {measure: [[ratio per unit] per block]}.  Each block starts a fresh worker
    per checkout with `start(checkout)`, the lead side's first, the change
    leading every other block; the side that runs a unit first alternates
    from unit to unit, starting with the lead (ABBA)."""
    ratios: dict[str, list[list[float]]] = {}
    for first in range(0, len(unit_list), BLOCK_UNITS):
        block = unit_list[first:first + BLOCK_UNITS]
        swap = first // BLOCK_UNITS % 2 == 1
        sides = []
        try:
            for checkout in (change, base) if swap else (base, change):
                sides.append(start(checkout))
            base_side, change_side = sides[::-1] if swap else sides
            for unit in block[:WARMUP_UNITS]:
                for side in sides:
                    side.run(unit)
            block_ratios: dict[str, list[float]] = {}
            for i, unit in enumerate(block):
                order = sides if i % 2 == 0 else sides[::-1]
                replies = {side: side.run(unit) for side in order}
                a, b = replies[base_side], replies[change_side]
                if a["lines"] != b["lines"]:
                    raise SystemExit(
                        f"outputs differ on {unit}:\n  base   {a['lines']}\n  change {b['lines']}"
                    )
                for measure in MEASURES:
                    if measure in a:
                        block_ratios.setdefault(measure, []).append(a[measure] / b[measure])
            for measure, values in block_ratios.items():
                ratios.setdefault(measure, []).append(values)
        finally:
            for side in sides:
                side.close()
    return ratios


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--lives", type=int, default=200,
                        help="frozen-eval lives compared (default 200)")
    parser.add_argument("--games", type=int, default=100,
                        help="level-5 games compared (default 100, four blocks)")
    parser.add_argument("--setups", type=int, default=100,
                        help="frozen-eval start-ups compared (default 100)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and (args.base is None or args.change is None):
        parser.error("--base and --change are required")
    for flag, checkout in (("--base", args.base), ("--change", args.change)):
        for needed in CHECKOUT_FILES:
            if checkout is not None and not (checkout / needed).is_file():
                parser.error(f"{flag} {checkout} is not a checkout: it lacks {needed}")
    for flag, count in (("--lives", args.lives), ("--games", args.games),
                        ("--setups", args.setups)):
        if count < 0:
            parser.error(f"{flag} must be >= 0, got {count}")
    if args.lives == 0 and args.games == 0 and args.setups == 0:
        parser.error("--lives, --games and --setups are all 0: nothing to compare")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve())
    rng = random.Random(SEED)
    for kind, unit_list in units(args.lives, args.games, args.setups).items():
        if not unit_list:
            continue
        ratios = compare(args.base.resolve(), args.change.resolve(), unit_list, Side)
        for measure, blocks in ratios.items():
            values = [ratio for block in blocks for ratio in block]
            lo, hi = bootstrap_median_ci(blocks, rng)
            print(
                f"{kind}: {len(values)} pairs, {measure} base/change median "
                f"{statistics.median(values):.4f} (95% CI {lo:.4f}-{hi:.4f}, "
                f"{len(blocks)} blocks)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
