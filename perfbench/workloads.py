"""The three benchmark workloads, their output checks and output digests.

Each workload is built from the workload seed alone.  It has ``VARIANTS``
input variants, numbered from 0: variant 0 is the workload's inputs for the
seed, and variant v moves the game or life seeds by a fixed offset, so that a
run can average over several inputs of one kind.  ``run(variant)`` is the
timed part of one repetition and goes through the package's public API,
looking functions up as module attributes so that a traced repetition sees
them.  ``check(state)`` is untimed: it verifies the outputs and digests them.
The checks use the functions bound below at import time, before any tracer is
installed, so checking adds no calls to a traced repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from sarsa_arena import arena, cli, config, harness, snapshots, weapons
from sarsa_arena.harness import load_games_csv, load_lives_csv
from sarsa_arena.snapshots import read_snapshot, snapshot

HERE = Path(__file__).resolve().parent

# Level-1 policy for frozen-eval, made once by the train command given in
# README.md, so that later changes to training leave it as it is.
POLICY = HERE / "data" / "policy-l1-s7.rlsq"


@dataclass
class Outcome:
    """What one repetition did and whether its outputs check out."""

    ticks: int
    lives: int
    attempted: int  # games, or evaluated lives on frozen-eval
    failed: set = field(default_factory=set)  # keys of the failed operations
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def tree_digest(root: Path, text: str = "") -> str:
    """sha256 over every file under ``root`` (relative path and bytes), then ``text``."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    h.update(text.encode())
    return h.hexdigest()


def check_campaign(result: harness.CampaignResult, out_dir: Path, outcome: Outcome) -> None:
    """Criterion-9 identities, per-life counters, Q values and file round trips.

    A failed check fails every game of the campaign, except a negative
    per-life counter, which fails only that life's game.
    """
    run_id = result.settings.run_id
    games = {(run_id, g.game) for g in result.games}

    def fail(message: str, keys=games) -> None:
        outcome.problems.append(f"{run_id}: {message}")
        outcome.failed.update(keys)

    tset = result.tset
    deaths = sum(g.deaths_by_others for g in result.games)
    suicides = sum(g.suicides for g in result.games)
    if tset.lives != deaths + suicides:
        fail(f"lives {tset.lives} != deaths {deaths} + suicides {suicides}")
    killed = sum(r.death_cause == "killed" for r in result.lives)
    if killed != deaths:
        fail(f"{killed} 'killed' causes but {deaths} deaths by others")
    for r in result.lives:
        if r.hits < 0 or r.misses < 0:
            fail(f"life {r.life}: hits {r.hits} misses {r.misses}", {(run_id, r.game)})
    for cat, table in tset.tables.items():
        if not all(math.isfinite(v) for v in table.q.values()):
            fail(f"non-finite Q value in {cat.value}")
    if load_lives_csv(out_dir / "lives.csv") != result.lives:
        fail("lives.csv does not load back as the in-memory records")
    if load_games_csv(out_dir / "games.csv") != result.games:
        fail("games.csv does not load back as the in-memory records")
    back = read_snapshot(out_dir / f"snap_{result.settings.level}_final.rlsq")
    nonzero = {
        cat: {k: v for k, v in table.q.items() if v != 0.0}
        for cat, table in tset.tables.items()
    }
    if back.lives != tset.lives or {c: t.q for c, t in back.tables.items()} != nonzero:
        fail("final snapshot does not read back as the in-memory tables")


# Variant v of a workload adds v * VARIANT_STRIDE to its campaign seeds.
VARIANT_STRIDE = 1000


class Workload:
    """A context manager, so a workload can hook the CLI for its whole run."""

    VARIANTS = 1

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class TrainL5(Workload):
    """The CLI flow: train at level 5 with events, snapshots and plots, then
    report and inspect the outputs."""

    name = "train-l5"
    VARIANTS = 12
    GAMES = 6
    MINUTES = 1.0
    SNAPSHOT_EVERY = 5

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.out = work / self.name
        sim = config.load_config()
        self.ticks = self.GAMES * round(self.MINUTES * 60 * sim.physics.tick_hz)
        self.results: list[harness.CampaignResult] = []

    def __enter__(self):
        # The CLI drops the campaign result; keep it so check() can compare
        # the files with the in-memory records.
        self._run_campaign = cli.run_campaign

        def recording(*args, **kwargs):
            result = self._run_campaign(*args, **kwargs)
            self.results.append(result)
            return result

        cli.run_campaign = recording
        return self

    def __exit__(self, *exc) -> None:
        cli.run_campaign = self._run_campaign

    def run(self, variant: int):
        self.results.clear()
        seed = self.seed + variant * VARIANT_STRIDE
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = (
                cli.main([
                    "train", "--level", "5", "--games", str(self.GAMES),
                    "--minutes", str(self.MINUTES), "--seed", str(seed),
                    "--out", str(self.out),
                    "--snapshot-every", str(self.SNAPSHOT_EVERY), "--events",
                ]),
                cli.main(["report", str(self.out)]),
                cli.main(["inspect", str(self.out / "level5" / "snap_5_final.rlsq")]),
            )
        return seed, codes, stdout.getvalue()

    def check(self, state) -> Outcome:
        seed, codes, text = state
        outcome = Outcome(ticks=self.ticks, lives=0, attempted=self.GAMES)
        if codes != (0, 0, 0) or len(self.results) != 1:
            outcome.problems.append(f"exit codes {codes}, {len(self.results)} campaigns")
            outcome.failed.update(
                (f"L5-s{seed}", game) for game in range(1, self.GAMES + 1)
            )
        for result in self.results:
            outcome.lives += len(result.lives)
            check_campaign(result, self.out / "level5", outcome)
        outcome.digest = tree_digest(self.out, text.replace(str(self.out), "<out>"))
        shutil.rmtree(self.out)
        return outcome


class Sweep9(Workload):
    """The nine (level, seed) campaigns of criterion 6, shortened, without
    events, periodic snapshots or plots."""

    name = "sweep-9"
    VARIANTS = 4
    LEVELS = (1, 3, 5)
    SEEDS_PER_LEVEL = 3
    GAMES = 1
    MINUTES = 1.0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.out = work / self.name
        sim = config.load_config()
        self.ticks_per_campaign = self.GAMES * round(self.MINUTES * 60 * sim.physics.tick_hz)

    def run(self, variant: int):
        first = self.seed + variant * VARIANT_STRIDE
        sim = config.load_config()
        return [
            harness.run_campaign(sim, harness.CampaignSettings(
                level=level, games=self.GAMES, minutes=self.MINUTES, seed=seed,
                out_dir=self.out / f"L{level}-s{seed}", snapshot_every=0,
            ))
            for level in self.LEVELS
            for seed in range(first, first + self.SEEDS_PER_LEVEL)
        ]

    def check(self, results) -> Outcome:
        outcome = Outcome(
            ticks=self.ticks_per_campaign * len(results),
            lives=sum(len(r.lives) for r in results),
            attempted=sum(len(r.games) for r in results),
        )
        for result in results:
            check_campaign(result, Path(result.settings.out_dir), outcome)
        outcome.digest = tree_digest(self.out)
        shutil.rmtree(self.out)
        return outcome


class FrozenEval(Workload):
    """The criterion-7 loop: matched lives of a restored level-1 policy played
    greedily and at random, each life in a fresh World capped at 900 ticks."""

    name = "frozen-eval"
    VARIANTS = 4
    LIVES_PER_POLICY = 60
    MAX_TICKS = 30 * 30

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed

    def run(self, variant: int):
        # Life seeds SEED*1000 + i; variant v takes the next block of 60.
        first = self.seed * 1000 + variant * self.LIVES_PER_POLICY
        life_seeds = range(first, first + self.LIVES_PER_POLICY)
        sim = config.load_config()
        policy = snapshots.read_snapshot(POLICY)
        lives = []
        for controller_cls in (arena.GreedyController, arena.RandomController):
            for life_seed in life_seeds:
                rng = random.Random(life_seed)
                tset = weapons.new_table_set(sim.learner)
                for cat in tset.tables:
                    tset.tables[cat].q = dict(policy.tables[cat].q)
                world = arena.World(
                    sim.arena, sim.armory, sim.physics, sim.behavior,
                    sim.profiles[1],
                    controller_cls(tset, sim.armory, sim.priority, rng), rng,
                )
                stats = None
                for _ in range(self.MAX_TICKS):
                    world.tick()
                    if world.completed_life is not None:
                        stats = world.completed_life
                        break
                if stats is None:
                    stats = world.finalize_truncated_life()
                lives.append(
                    (controller_cls.__name__, life_seed, world.tick_count, tset.lives, stats)
                )
        return policy, lives

    def check(self, state) -> Outcome:
        policy, lives = state
        outcome = Outcome(
            ticks=sum(life[2] for life in lives), lives=len(lives), attempted=len(lives),
        )
        if snapshot(policy) != POLICY.read_text(encoding="ascii"):
            outcome.problems.append("policy snapshot does not round-trip")
            outcome.failed.update(range(len(lives)))
        for cat, table in policy.tables.items():
            if not all(math.isfinite(v) for v in table.q.values()):
                outcome.problems.append(f"non-finite Q value in {cat.value}")
                outcome.failed.update(range(len(lives)))
        lines = []
        for i, (controller, life_seed, ticks, counted, stats) in enumerate(lives):
            died = stats.cause != "game-end"
            if (
                stats.hits < 0 or stats.misses < 0
                or not math.isfinite(stats.reward) or counted != int(died)
            ):
                outcome.problems.append(
                    f"{controller} life seed {life_seed}: hits {stats.hits} "
                    f"misses {stats.misses} reward {stats.reward!r} lives {counted}"
                )
                outcome.failed.add(i)
            lines.append(
                f"{controller} {life_seed} {ticks} {stats.hits} {stats.misses} "
                f"{stats.reward!r} {stats.duration_s!r} {stats.cause}\n"
            )
        outcome.digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        return outcome


WORKLOADS = {w.name: w for w in (TrainL5, Sweep9, FrozenEval)}
