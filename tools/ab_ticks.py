#!/usr/bin/env python3
"""Drift-cancelling A/B comparison of two checkouts' tick rates.

    python3 tools/ab_ticks.py --base PARENT_CHECKOUT --change CHECKOUT

Starts one warm worker process per checkout, each importing ``sarsa_arena``
from its checkout's ``src/``, and hands both the same small units of work:
single ``frozen-eval`` lives (one seed of ``harness.evaluate_policy``: a
stored level-1 policy played greedily or at random in a fresh World, capped
at 900 ticks) and single one-minute level-5 games (a one-game campaign).
Each unit runs on both sides back to back, the side that goes first
alternating from unit to unit (ABBA), so that the host's drift, which moves
in phases of seconds to minutes, meets both sides alike.  Both sides must report identical lives
(the reward of a frozen-eval life, every LifeRecord of a game) for every
unit, or the comparison stops with exit code 1.  Unit seeds and the
bootstrap's stream derive from SEED.

For each kind of unit it prints the median over units of base time over
change time (above 1 means the change ticks faster), with a 95% percentile
bootstrap interval of that median, in process CPU time and in wall time.
This follows Kalibera and Jones, "Rigorous benchmarking in reasonable time"
(ISMM 2013).  Running a checkout against itself (an A/A run) shows the noise
floor of the comparison.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Units run on both sides before timing starts, to warm the workers.
WARMUP_UNITS = 2
BOOTSTRAP_RESAMPLES = 2000
SEED = 1


# ---------------------------------------------------------------------------
# Worker side: runs in its checkout's interpreter, one JSON line per unit.


def _level5_game(sim, seed: int) -> list[str]:
    from sarsa_arena import harness

    with tempfile.TemporaryDirectory() as out:
        result = harness.run_campaign(sim, harness.CampaignSettings(
            level=5, games=1, minutes=1.0, seed=seed, out_dir=Path(out),
            snapshot_every=0,
        ))
    return [repr(life) for life in result.lives]


def worker(checkout: Path) -> int:
    sys.path.insert(0, str(checkout / "src"))
    from sarsa_arena import arena, config, harness, snapshots

    # Loaded once, untimed, as perfbench loads them once per repetition.
    sim = config.load_config()
    policy = snapshots.read_snapshot(checkout / "perfbench" / "data" / "policy-l1-s7.rlsq")
    for request in sys.stdin:
        unit = json.loads(request)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if unit["kind"] == "frozen-eval":
            controller_cls = getattr(arena, unit["controller"])
            rewards = harness.evaluate_policy(sim, policy, controller_cls, [unit["seed"]])
            lines = [repr(reward) for reward in rewards]
        else:
            lines = _level5_game(sim, unit["seed"])
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        print(json.dumps({"cpu_s": cpu, "wall_s": wall, "lines": lines}), flush=True)
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


def bootstrap_median_ci(ratios: list[float], rng: random.Random) -> tuple[float, float]:
    """95% percentile bootstrap interval of the median of `ratios`."""
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES)
    )
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def units(lives: int, games: int) -> dict[str, list[dict]]:
    """The units of each kind: lives alternate greedy and random play."""
    controllers = ("GreedyController", "RandomController")
    return {
        "frozen-eval": [
            {"kind": "frozen-eval", "seed": SEED * 1000 + i, "controller": controllers[i % 2]}
            for i in range(lives)
        ],
        "level-5 game": [{"kind": "level-5 game", "seed": SEED + i} for i in range(games)],
    }


def compare(base: Side, change: Side, unit_list: list[dict]) -> dict[str, list[float]]:
    """Base-over-change time ratios per unit, each unit run ABBA-ordered."""
    for unit in unit_list[:WARMUP_UNITS]:
        base.run(unit)
        change.run(unit)
    ratios: dict[str, list[float]] = {"cpu_s": [], "wall_s": []}
    for i, unit in enumerate(unit_list):
        order = (base, change) if i % 2 == 0 else (change, base)
        replies = {side: side.run(unit) for side in order}
        a, b = replies[base], replies[change]
        if a["lines"] != b["lines"]:
            raise SystemExit(
                f"outputs differ on {unit}:\n  base   {a['lines']}\n  change {b['lines']}"
            )
        for clock in ratios:
            ratios[clock].append(a[clock] / b[clock])
    return ratios


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--lives", type=int, default=200,
                        help="frozen-eval lives compared (default 200)")
    parser.add_argument("--games", type=int, default=40,
                        help="level-5 games compared (default 40)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and (args.base is None or args.change is None):
        parser.error("--base and --change are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args.worker.resolve())
    base, change = Side(args.base.resolve()), None
    try:
        change = Side(args.change.resolve())
        rng = random.Random(SEED)
        for kind, unit_list in units(args.lives, args.games).items():
            if not unit_list:
                continue
            ratios = compare(base, change, unit_list)
            for clock, values in ratios.items():
                lo, hi = bootstrap_median_ci(values, rng)
                print(
                    f"{kind}: {len(values)} pairs, {clock} base/change median "
                    f"{statistics.median(values):.4f} (95% CI {lo:.4f}-{hi:.4f})"
                )
    finally:
        base.close()
        if change is not None:
            change.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
