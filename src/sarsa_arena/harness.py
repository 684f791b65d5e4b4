"""Campaign runner: repeated deathmatch games with persistent learning state.

Writes one row per bot life to lives.csv, one row per game to games.csv, and
periodic Q-table snapshots.  Output is deterministic for a fixed (config,
seed) pair, down to the byte.
"""

from __future__ import annotations

import contextlib
import csv
import random
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .arena import LifeStats, RL_AGENT_ID, RlShooterController, World, format_event
from .config import SimConfig, check_campaign_ranges
from .learner import QTableSet
from .metrics import FieldSummary, hit_percentage, kd_ratio, summarize_field
from .snapshots import write_snapshot
from .weapons import new_table_set

@dataclass(frozen=True)
class LifeRecord:
    run_id: str
    game: int
    life: int
    level: int
    hits: int
    misses: int
    reward: float
    duration_s: float
    death_cause: str  # killed | suicide-pit | suicide-self-splash | game-end


@dataclass(frozen=True)
class GameRecord:
    run_id: str
    game: int
    level: int
    kills: int
    deaths_by_others: int
    suicides: int
    max_kill_streak: int
    weapons_collected: int
    ammo_collected: int
    time_moving_s: float
    distance_uu: float
    shoot_s: dict[str, float]

    @property
    def deaths(self) -> int:
        return self.deaths_by_others + self.suicides


@dataclass(frozen=True)
class CampaignSettings:
    level: int
    games: int
    minutes: float
    seed: int
    out_dir: Path
    snapshot_every: int = 50
    record_events: bool = False

    def __post_init__(self) -> None:
        check_campaign_ranges(self.games, self.minutes, self.snapshot_every)

    @property
    def run_id(self) -> str:
        return f"L{self.level}-s{self.seed}"


@dataclass
class CampaignResult:
    settings: CampaignSettings
    lives: list[LifeRecord] = field(default_factory=list)
    games: list[GameRecord] = field(default_factory=list)
    tset: QTableSet | None = None


def run_campaign(
    sim: SimConfig,
    settings: CampaignSettings,
    tset: QTableSet | None = None,
) -> CampaignResult:
    """Play `settings.games` games at one opponent level, learning throughout."""
    out = Path(settings.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(settings.seed)
    tset = tset if tset is not None else new_table_set(sim.learner)
    controller = RlShooterController(tset, sim.armory, sim.priority, rng)
    result = CampaignResult(settings=settings, tset=tset)
    weapon_names = list(sim.armory)
    ticks_per_game = round(settings.minutes * 60 * sim.physics.tick_hz)

    lives_path = out / "lives.csv"
    games_path = out / "games.csv"

    with contextlib.ExitStack() as files:
        events_file = files.enter_context(
            (out / "events.log").open("w", encoding="ascii")
        ) if settings.record_events else None
        lives_f = files.enter_context(lives_path.open("w", newline="", encoding="ascii"))
        games_f = files.enter_context(games_path.open("w", newline="", encoding="ascii"))
        lives_w = csv.writer(lives_f)
        lives_w.writerow(_header(LifeRecord))
        games_w = csv.writer(games_f)
        games_w.writerow(_header(GameRecord, weapon_names))

        def record_life(game: int, stats: LifeStats) -> None:
            record = LifeRecord(
                run_id=settings.run_id, game=game, life=len(result.lives) + 1,
                level=settings.level, hits=stats.hits, misses=stats.misses,
                reward=stats.reward, duration_s=stats.duration_s,
                death_cause=stats.cause,
            )
            result.lives.append(record)
            lives_w.writerow(_row(record))

        for game in range(1, settings.games + 1):
            world = World(
                sim.arena, sim.armory, sim.physics, sim.behavior,
                sim.profiles[settings.level], controller, rng,
                n_opponents=sim.harness.opponents,
            )
            for _ in range(ticks_per_game):
                events = world.tick()
                if events_file is not None:
                    events_file.writelines(format_event(e) + "\n" for e in events)
                if world.completed_life is not None:
                    record_life(game, world.completed_life)
                    world.completed_life = None
                    if settings.snapshot_every > 0 and (
                        tset.lives % settings.snapshot_every == 0
                    ):
                        write_snapshot(
                            tset,
                            out / f"snap_{settings.level}_{tset.lives}.rlsq",
                        )

            rl_agent = world.agents[RL_AGENT_ID]
            if rl_agent.alive:
                record_life(game, world.finalize_truncated_life())
            else:
                # Dead at the whistle: the death was already recorded.
                controller.on_game_end()

            stats = asdict(world.game)
            del stats["kill_streak"]  # a running count, not a game total
            game_record = GameRecord(
                run_id=settings.run_id, game=game, level=settings.level, **stats
            )
            result.games.append(game_record)
            games_w.writerow(_row(game_record, weapon_names))

    write_snapshot(tset, out / f"snap_{settings.level}_final.rlsq")
    return result


# Criterion 7 caps each evaluation life at 30 simulated seconds of 30 Hz ticks.
EVAL_MAX_TICKS = 30 * 30


def evaluate_policy(
    sim: SimConfig, policy: QTableSet, controller_cls, seeds
) -> list[float]:
    """Each seed's reward for one life of `policy` played by `controller_cls`.

    Every life gets its own `random.Random(seed)`, a copy of the policy's Q
    values and a fresh World against level-1 opponents; a life still running
    after EVAL_MAX_TICKS ticks ends there and keeps its reward so far.
    """
    rewards = []
    for seed in seeds:
        rng = random.Random(seed)
        tset = new_table_set(sim.learner)
        for cat in tset.tables:
            tset.tables[cat].q = dict(policy.tables[cat].q)
        world = World(
            sim.arena, sim.armory, sim.physics, sim.behavior, sim.profiles[1],
            controller_cls(tset, sim.armory, sim.priority, rng), rng,
            n_opponents=sim.harness.opponents,
        )
        for _ in range(EVAL_MAX_TICKS):
            world.tick()
            if world.completed_life is not None:
                rewards.append(world.completed_life.reward)
                break
        else:
            rewards.append(world.finalize_truncated_life().reward)
    return rewards


# ---------------------------------------------------------------------------
# CSV files: one column per record field, in field order, except that
# GameRecord.shoot_s is written as shoot_s_total plus one shoot_s_<weapon>
# column per weapon of the armory.


def _header(cls, weapon_names=()) -> list[str]:
    header = []
    for f in fields(cls):
        if f.name == "shoot_s":
            header += ["shoot_s_total", *(f"shoot_s_{n}" for n in weapon_names)]
        else:
            header.append(f.name)
    return header


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _row(record, weapon_names=()) -> list[str]:
    row = []
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "shoot_s":
            row.append(_fmt(sum(value.values())))
            row += [_fmt(value.get(n, 0.0)) for n in weapon_names]
        else:
            row.append(_fmt(value))
    return row


# How a cell is read back, by the annotation of its field.
_PARSERS = {"str": str, "int": int, "float": float}


def _load(path: Path | str, cls) -> list:
    records = []
    with Path(path).open(newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for cells in reader:
            if not cells:
                continue  # blank lines hold no record
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(cells)} cells, "
                    f"the header {len(header)}"
                )
            row = dict(zip(header, cells))
            values = {}
            for f in fields(cls):
                if f.name == "shoot_s":
                    values[f.name] = {
                        key[len("shoot_s_"):]: float(cell)
                        for key, cell in row.items()
                        if key.startswith("shoot_s_") and key != "shoot_s_total"
                    }
                else:
                    values[f.name] = _PARSERS[f.type](row[f.name])
            records.append(cls(**values))
    return records


def load_lives_csv(path: Path | str) -> list[LifeRecord]:
    return _load(path, LifeRecord)


def load_games_csv(path: Path | str) -> list[GameRecord]:
    return _load(path, GameRecord)


# ---------------------------------------------------------------------------
# Reporting


@dataclass(frozen=True)
class LevelSummary:
    level: int
    games: int
    kills: int
    deaths_by_others: int
    suicides: int
    kd: float | None
    hit_pct: float | None
    per_game_kills: FieldSummary


def summarize_level(
    lives: list[LifeRecord], games: list[GameRecord]
) -> LevelSummary:
    if not games:
        raise ValueError("no game records to summarize")
    if not lives:
        raise ValueError("cannot summarize an empty series of lives")
    level = games[0].level
    kills = sum(g.kills for g in games)
    deaths_by_others = sum(g.deaths_by_others for g in games)
    suicides = sum(g.suicides for g in games)
    hits = sum(r.hits for r in lives)
    misses = sum(r.misses for r in lives)
    return LevelSummary(
        level=level,
        games=len(games),
        kills=kills,
        deaths_by_others=deaths_by_others,
        suicides=suicides,
        kd=kd_ratio(kills, deaths_by_others, suicides),
        hit_pct=hit_percentage(hits, misses),
        per_game_kills=summarize_field([g.kills for g in games]),
    )


def format_report(summaries: list[LevelSummary]) -> str:
    lines = [
        "level  games  kills  deaths  suicides     K:D   hit%",
    ]
    for s in sorted(summaries, key=lambda s: s.level):
        kd = f"{s.kd:7.2f}" if s.kd is not None else "      -"
        hp = f"{s.hit_pct:6.1f}" if s.hit_pct is not None else "     -"
        lines.append(
            f"{s.level:5d}  {s.games:5d}  {s.kills:5d}  {s.deaths_by_others:6d}"
            f"  {s.suicides:8d}  {kd} {hp}"
        )
        pg = s.per_game_kills
        lines.append(
            f"       kills/game: mean {pg.mean:.2f} std {pg.std:.2f}"
            f" min {pg.minimum:.0f} max {pg.maximum:.0f} median {pg.median:.0f}"
        )
    return "\n".join(lines)
