"""The records of the arena: what World reads, emits and mutates.

The static world description that config.py reads (`Arena` and the
parameter records), the constants that bound it, the events each tick
returns, the mutable entities (agents and projectiles), the learning
bot's counts for a life and a game, and `unit_towards`.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import NamedTuple

from .weapons import ASSAULT_RIFLE, CYLINDER_RADIUS, check_params

RL_AGENT_ID = 0
# The scripted opponents in every game, agents 1..OPPONENTS.
OPPONENTS = 3
# An agent collects a pickup whose spot is within this distance.
PICKUP_RADIUS = 60.0
# The proximity index cuts the arena into this many cells along each axis.
INDEX_CELLS = 40
# The widest arena accepted, and the most that a pit's or pickup's |x| or |y|
# and a pit's radius may be.  World's early-out proofs and the proximity
# index's one-cell growth rest on this game-scale bound.
MAX_ARENA_SIZE = 2.0 ** 20


# ---------------------------------------------------------------------------
# Static world description


class Wall(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class Pit(NamedTuple):
    x: float
    y: float
    radius: float


class PickupSpot(NamedTuple):
    kind: str  # "weapon" | "ammo"
    weapon: str | None
    x: float
    y: float


class Arena(NamedTuple):
    size: float
    walls: tuple[Wall, ...]
    pits: tuple[Pit, ...]
    spawn_points: tuple[tuple[float, float], ...]
    pickups: tuple[PickupSpot, ...]

    def check(self) -> None:
        # Movement clamps agents to [r, World.walk_max], strictly inside the
        # boundary, which World.line_of_sight relies on.
        if not 2 * CYLINDER_RADIUS < self.size <= MAX_ARENA_SIZE:
            raise ValueError(
                f"arena size {self.size!r} must be wider than an agent and at "
                f"most {MAX_ARENA_SIZE:.0f}"
            )
        # World.line_of_sight proves its wall tests for walls in the arena.
        for wall in self.walls:
            if not all(0.0 <= c <= self.size for c in wall):
                raise ValueError(f"walls: {wall} needs coordinates in [0, {self.size!r}]")
        # The proximity index places each pit and pickup by its bounding box,
        # grown by one cell, which covers rounding within these bounds.  A
        # negative radius would also kill like a positive one but steer
        # agents with a negative margin.  A centre may lie outside the arena.
        m = MAX_ARENA_SIZE
        for pit in self.pits:
            if not (abs(pit.x) <= m and abs(pit.y) <= m and 0.0 <= pit.radius <= m):
                raise ValueError(
                    f"pits: {pit} needs |x|, |y| and a radius >= 0 of at most {m:.0f}"
                )
        for spot in self.pickups:
            if not (abs(spot.x) <= m and abs(spot.y) <= m):
                raise ValueError(f"pickups: {spot} needs |x| and |y| of at most {m:.0f}")
        if len(self.spawn_points) < OPPONENTS + 1:
            raise ValueError(f"arena needs at least {OPPONENTS + 1} spawn points")
        # An agent spawns where its point is, before any move clamps it, so
        # the point must lie in the region movement clamps to.
        lo, hi = CYLINDER_RADIUS, self.size - CYLINDER_RADIUS
        for sx, sy in self.spawn_points:
            if not (lo <= sx <= hi and lo <= sy <= hi):
                raise ValueError("spawn point outside the walkable region")
            for pit in self.pits:
                if (sx - pit.x) ** 2 + (sy - pit.y) ** 2 <= pit.radius * pit.radius:
                    raise ValueError("spawn point inside a pit")

    # Keyed on the arena's value, so every World on an equal arena shares
    # one index; a run plays one arena, the tests a handful.
    @property
    @lru_cache(maxsize=8)
    def proximity(self) -> tuple[float, dict]:
        """(cell, index): `index` maps the cell `(x // cell, y // cell)` of a
        point to `(pits, pickups)`, the pits as `(x, y, radius ** 2)` and the
        positions of the pickup spots in `self.pickups`, each in arena order,
        that are within reach of some point of that cell.  Cells that nothing
        reaches are left out.

        Each feature is entered in every cell that its bounding box touches,
        grown by one whole cell, so no point that the distance tests accept,
        rounding included, lies in a cell without it: at |centre| + reach <=
        2**21 + 60 (check) one rounding step is at most 2**-31 uu, far
        under 1/16 of the smallest cell (2 * CYLINDER_RADIUS / INDEX_CELLS /
        16, about 0.053 uu).
        Only cells that agents can stand in are kept: [0, INDEX_CELLS] on
        both axes.
        """
        cell = self.size / INDEX_CELLS

        def reach(x: float, y: float, r: float) -> list[tuple[float, float]]:
            def span(c: float) -> range:
                lo = max(int((c - r) // cell) - 1, 0)
                return range(lo, min(int((c + r) // cell) + 1, INDEX_CELLS) + 1)

            return [(float(i), float(j)) for i in span(x) for j in span(y)]

        index: dict[tuple[float, float], tuple[list, list]] = {}
        for pit in self.pits:
            for key in reach(pit.x, pit.y, pit.radius):
                index.setdefault(key, ([], []))[0].append(
                    (pit.x, pit.y, pit.radius * pit.radius)
                )
        for i, spot in enumerate(self.pickups):
            for key in reach(spot.x, spot.y, PICKUP_RADIUS):
                index.setdefault(key, ([], []))[1].append(i)
        return cell, {key: (tuple(p), tuple(q)) for key, (p, q) in index.items()}


class OpponentProfile(NamedTuple):
    speed_fraction: float
    strafes: bool
    dodges: bool
    closes_distance: bool
    max_aim_error_deg: float
    fov_deg: float
    turn_rate_deg_s: float
    aim_lag_s: float
    combat_jump_prob_s: float

    def check(self) -> None:
        check_params(self, at_least={
            "fov_deg": 0, "turn_rate_deg_s": 0, "speed_fraction": 0, "aim_lag_s": 0,
        })


class PhysicsParams(NamedTuple):
    tick_hz: int
    decision_every: int
    base_speed: float
    respawn_delay_s: float
    jump_duration_s: float
    jump_height_uu: float
    pickup_respawn_s: float
    spawn_assault_ammo: int
    weapon_pickup_ammo: int
    ammo_pickup_amount: int
    eye_height: float
    rl_fov_deg: float
    rl_turn_rate_deg_s: float
    aim_lag_s: float

    def check(self) -> None:
        # Above the largest float, `dt` and a game's tick count overflow.
        check_params(self, at_least={
            "tick_hz": 1, "decision_every": 1, "spawn_assault_ammo": 0,
            "weapon_pickup_ammo": 0, "ammo_pickup_amount": 0, "base_speed": 0,
            "rl_fov_deg": 0, "rl_turn_rate_deg_s": 0, "aim_lag_s": 0, "respawn_delay_s": 0,
            "pickup_respawn_s": 0, "jump_duration_s": 0,
        }, at_most={"tick_hz": sys.float_info.max})

    @property
    def dt(self) -> float:
        return 1.0 / self.tick_hz


class BehaviorParams(NamedTuple):
    strafe_flip_min_s: float
    strafe_flip_max_s: float
    jump_prob_per_s: float
    dodge_radius: float
    waypoint_radius: float
    pit_avoid_margin: float
    fire_align_tolerance_deg: float
    engage_range: float
    scripted_stop_range: float

    def check(self) -> None:
        if not self.strafe_flip_min_s <= self.strafe_flip_max_s:
            raise ValueError(
                f"strafe_flip_min_s ({self.strafe_flip_min_s}) must not exceed "
                f"strafe_flip_max_s ({self.strafe_flip_max_s})"
            )
        check_params(self, at_least={
            "dodge_radius": 0, "waypoint_radius": 0, "pit_avoid_margin": 0,
            "fire_align_tolerance_deg": 0, "engage_range": 0, "scripted_stop_range": 0,
        })


# ---------------------------------------------------------------------------
# Events


class DamageEvent(NamedTuple):
    tick: int
    attacker: int
    victim: int
    amount: float
    weapon: str
    self_inflicted: bool


class KillEvent(NamedTuple):
    tick: int
    killer: int
    victim: int


class SuicideEvent(NamedTuple):
    tick: int
    victim: int
    cause: str  # "pit" | "self-splash"


class SpawnEvent(NamedTuple):
    tick: int
    agent: int


class PickupEvent(NamedTuple):
    tick: int
    agent: int
    item: str


Event = DamageEvent | KillEvent | SuicideEvent | SpawnEvent | PickupEvent


def format_event(e: Event) -> str:
    if isinstance(e, DamageEvent):
        return (
            f"{e.tick} damage {e.attacker} {e.victim} {e.amount!r} "
            f"{e.weapon} {'self' if e.self_inflicted else 'enemy'}"
        )
    if isinstance(e, KillEvent):
        return f"{e.tick} kill {e.killer} {e.victim}"
    if isinstance(e, SuicideEvent):
        return f"{e.tick} suicide {e.victim} {e.cause}"
    if isinstance(e, SpawnEvent):
        return f"{e.tick} spawn {e.agent}"
    return f"{e.tick} pickup {e.agent} {e.item}"


# ---------------------------------------------------------------------------
# Mutable entities


class AgentState:
    __slots__ = (
        "id", "x", "y", "z", "vx", "vy", "yaw", "health",
        "jump_t", "inventory", "alive", "respawn_timer", "current_weapon",
        "cooldown", "fire_command", "waypoint", "strafe_dir", "strafe_timer",
        "death", "alert_pos", "alert_timer",
    )

    def __init__(self, agent_id: int) -> None:
        self.id = agent_id
        self.reset()

    def reset(self) -> None:
        """Every field but `id` back to its fresh value."""
        self.x = 0.0
        self.y = 0.0
        self.z = 0.0
        self.vx = 0.0
        self.vy = 0.0
        self.yaw = 0.0
        self.health = 100.0
        self.jump_t = -1.0  # < 0 means grounded
        self.inventory: dict[str, int] = {}
        self.alive = False
        self.respawn_timer = 0.0
        self.current_weapon = ASSAULT_RIFLE
        self.cooldown = 0.0
        self.fire_command: FireCommand | None = None
        self.waypoint: tuple[float, float] | None = None
        self.strafe_dir = 1.0
        self.strafe_timer = 0.0
        # How the agent died this tick, until the death loop emits it.
        self.death: KillEvent | SuicideEvent | None = None
        self.alert_pos: tuple[float, float] | None = None
        self.alert_timer = 0.0


class FireCommand(NamedTuple):
    weapon: str
    aim: tuple[float, float, float] | None  # None: locked on the target
    target_id: int
    # The shooter's aim handicaps: the seconds a lock-on trails its target,
    # and the widest hitscan pellet turn in degrees (None: no draw).
    lag: float
    spread: float | None


class Projectile:
    __slots__ = ("shooter", "weapon", "x", "y", "z", "vx", "vy", "vz", "remaining")

    def __init__(self, shooter: int, weapon: str, pos, vel, travel: float) -> None:
        self.shooter = shooter
        self.weapon = weapon
        self.x, self.y, self.z = pos
        self.vx, self.vy, self.vz = vel
        self.remaining = travel


# ---------------------------------------------------------------------------
# The learning bot's counts


class LifeStats:
    """The learning bot's counts for one life, and how it ended."""

    __slots__ = ("hits", "misses", "reward", "duration_s", "cause")

    def __init__(self, hits: int = 0, misses: int = 0, reward: float = 0.0,
                 duration_s: float = 0.0, cause: str = "game-end") -> None:
        self.hits = hits
        self.misses = misses
        self.reward = reward
        self.duration_s = duration_s
        self.cause = cause

    def __repr__(self) -> str:
        return f"LifeStats({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


class GameStats:
    """The learning bot's counts for one game: the fields of
    harness.GameRecord past its run id, game and level."""

    __slots__ = (
        "shoot_s", "kills", "deaths_by_others", "suicides", "max_kill_streak",
        "weapons_collected", "ammo_collected", "time_moving_s", "distance_uu",
    )

    def __init__(self, shoot_s: dict[str, float]) -> None:
        self.shoot_s = shoot_s
        self.kills = 0
        self.deaths_by_others = 0
        self.suicides = 0
        self.max_kill_streak = 0
        self.weapons_collected = 0
        self.ammo_collected = 0
        self.time_moving_s = 0.0
        self.distance_uu = 0.0


def unit_towards(agent: AgentState, target: AgentState, dist: float) -> tuple[float, float]:
    """geo.normalize2 of the offset from agent to target, given its length
    `dist` (math.hypot of the offset)."""
    if dist == 0.0:
        return (1.0, 0.0)
    return ((target.x - agent.x) / dist, (target.y - agent.y) / dist)
