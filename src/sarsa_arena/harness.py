"""Campaign runner: repeated deathmatch games with persistent learning state.

Writes one row per bot life to lives.csv, one row per game to games.csv, and
periodic Q-table snapshots.  Output is deterministic for a fixed (config,
seed) pair, down to the byte.
"""

from __future__ import annotations

import contextlib
import csv
import math
import random
from pathlib import Path
from typing import NamedTuple

from .arena import LifeStats, RlShooterController, World
from .config import SimConfig
from .learner import QTableSet
from .metrics import FieldSummary, hit_percentage, kd_ratio, summarize_field
from .snapshots import write_snapshot
from .weapons import check_params, field_types, new_table_set


class LifeRecord(NamedTuple):
    run_id: str
    game: int
    life: int
    level: int
    hits: int
    misses: int
    reward: float
    duration_s: float
    death_cause: str  # killed | suicide-pit | suicide-self-splash | game-end


class GameRecord(NamedTuple):
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


class CampaignSettings(NamedTuple):
    level: int
    games: int
    minutes: float
    seed: int
    out_dir: Path
    snapshot_every: int
    record_events: bool = False

    def check(self) -> None:
        check_params(self, at_least={"games": 1, "snapshot_every": 0}, above={"minutes": 0})

    @property
    def run_id(self) -> str:
        return f"L{self.level}-s{self.seed}"


class Campaign:
    """A campaign's state: settings, rng, tables, controller, the records so
    far and the open output files.  Play each game with `play_game()` inside
    `with campaign.files:`, which closes them."""

    def __init__(self, sim: SimConfig, settings: CampaignSettings) -> None:
        settings.check()
        if settings.level not in sim.profiles:
            raise ValueError(
                f"level {settings.level} has no [opponent:{settings.level}] section; "
                f"the known levels are {', '.join(map(str, sorted(sim.profiles)))}"
            )
        ticks = settings.minutes * 60 * sim.physics.tick_hz
        game = f"a game of {settings.minutes:g} minutes at {sim.physics.tick_hz} Hz"
        if ticks == math.inf:
            raise ValueError(f"{game} has too many ticks to count")
        if round(ticks) < 1:
            raise ValueError(f"{game} is shorter than one tick")
        self.sim = sim
        self.settings = settings
        self.ticks_per_game = round(ticks)
        self.out = Path(settings.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(settings.seed)
        self.tset = new_table_set(sim.learner)
        self.controller = RlShooterController(self.tset, sim.armory, sim.priority, self.rng)
        self.lives: list[LifeRecord] = []
        self.games: list[GameRecord] = []
        self.weapon_names = list(sim.armory)
        with contextlib.ExitStack() as files:
            self.events_file = files.enter_context(
                (self.out / "events.log").open("w", encoding="ascii")
            ) if settings.record_events else None
            self.lives_w = csv.writer(files.enter_context(
                (self.out / "lives.csv").open("w", newline="", encoding="ascii")))
            self.lives_w.writerow(_header(LifeRecord))
            self.games_w = csv.writer(files.enter_context(
                (self.out / "games.csv").open("w", newline="", encoding="ascii")))
            self.games_w.writerow(_header(GameRecord, self.weapon_names))
            self.files = files.pop_all()

    def play_game(self) -> None:
        """Play the next game in a fresh World: record each of the bot's
        lives as it ends, the one cut off at the whistle included, then the
        game."""
        sim, settings, tset = self.sim, self.settings, self.tset
        game = len(self.games) + 1
        world = World(
            sim.arena, sim.armory, sim.physics, sim.behavior,
            sim.profiles[settings.level], self.controller, self.rng,
        )
        for stats in world.play(self.ticks_per_game, self.events_file):
            record = LifeRecord(
                run_id=settings.run_id, game=game, life=len(self.lives) + 1,
                level=settings.level, hits=stats.hits, misses=stats.misses,
                reward=stats.reward, duration_s=stats.duration_s, death_cause=stats.cause,
            )
            self.lives.append(record)
            self.lives_w.writerow(_row(record))
            # A periodic snapshot follows the death it counts, not the whistle.
            if (settings.snapshot_every > 0 and stats.cause != "game-end"
                    and tset.lives % settings.snapshot_every == 0):
                write_snapshot(tset, self.out / f"snap_{settings.level}_{tset.lives}.rlsq")
        record = GameRecord(settings.run_id, game, settings.level,
                            *(getattr(world.game, name) for name in GameRecord._fields[3:]))
        self.games.append(record)
        self.games_w.writerow(_row(record, self.weapon_names))


def run_campaign(sim: SimConfig, settings: CampaignSettings) -> Campaign:
    """Play `settings.games` games at one opponent level, learning throughout."""
    campaign = Campaign(sim, settings)
    with campaign.files:
        for _ in range(settings.games):
            campaign.play_game()
    write_snapshot(campaign.tset, campaign.out / f"snap_{settings.level}_final.rlsq")
    return campaign


# Criterion 7 caps each evaluation life at 30 simulated seconds.
EVAL_MAX_S = 30.0


def evaluate_policy(
    sim: SimConfig, policy: QTableSet, controller_cls, seeds
) -> list[LifeStats]:
    """Each seed's record of one life of `policy` played by `controller_cls`.

    Every life gets its own `random.Random(seed)`, a copy of the policy's Q
    values and a fresh World against level-1 opponents, so it starts at tick
    0; a life still running after EVAL_MAX_S simulated seconds ends there,
    as "game-end", and keeps its reward so far.
    """
    ticks = EVAL_MAX_S * sim.physics.tick_hz
    if ticks == math.inf:
        raise ValueError(
            f"a life of {EVAL_MAX_S:g} s at {sim.physics.tick_hz} Hz has too many ticks to count"
        )
    lives = []
    for seed in seeds:
        rng = random.Random(seed)
        tset = new_table_set(sim.learner)
        for cat in tset.tables:
            tset.tables[cat].q = dict(policy.tables[cat].q)
        world = World(
            sim.arena, sim.armory, sim.physics, sim.behavior, sim.profiles[1],
            controller_cls(tset, sim.armory, sim.priority, rng), rng,
        )
        lives.append(next(world.play(round(ticks))))
    return lives


# ---------------------------------------------------------------------------
# CSV files: one column per record field, in field order, except that
# GameRecord.shoot_s is written as shoot_s_total plus one shoot_s_<weapon>
# column per weapon of the armory.


def _header(cls, weapon_names=()) -> list[str]:
    header = []
    for name in cls._fields:
        if name == "shoot_s":
            header += ["shoot_s_total", *(f"shoot_s_{n}" for n in weapon_names)]
        else:
            header.append(name)
    return header


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _row(record, weapon_names=()) -> list[str]:
    row = []
    for name, value in zip(record._fields, record):
        if name == "shoot_s":
            row.append(_fmt(sum(value.values())))
            row += [_fmt(value.get(n, 0.0)) for n in weapon_names]
        else:
            row.append(_fmt(value))
    return row


# How a cell is read back, by the annotation of its field.
_PARSERS = {"str": str, "int": int, "float": float}


def _rows(reader, path: Path | str):
    """The rows of `reader`, with a csv.Error (a field longer than
    csv.field_size_limit(), say) raised as a ValueError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc


def _load(path: Path | str, cls) -> list:
    records = []
    kinds = field_types(cls)
    with Path(path).open(newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        header = next(rows, [])
        for cells in rows:
            if not cells:
                continue  # blank lines hold no record
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(cells)} cells, "
                    f"the header {len(header)}"
                )
            row = dict(zip(header, cells))
            values = {}
            for name, kind in kinds.items():
                if name == "shoot_s":
                    values[name] = {
                        key[len("shoot_s_"):]: float(cell)
                        for key, cell in row.items()
                        if key.startswith("shoot_s_") and key != "shoot_s_total"
                    }
                else:
                    values[name] = _PARSERS[kind](row[name])
            records.append(cls(**values))
    return records


def load_lives_csv(path: Path | str) -> list[LifeRecord]:
    return _load(path, LifeRecord)


def load_games_csv(path: Path | str) -> list[GameRecord]:
    return _load(path, GameRecord)


# ---------------------------------------------------------------------------
# Reporting


class LevelSummary(NamedTuple):
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
