"""Deterministic fixed-timestep arena: agents, projectiles, damage and deaths.

The world advances at a fixed physics tick.  The learning bot takes a
shooting decision every few ticks; scripted opponents run a skill-profile
behavior every tick.  All randomness flows through one seeded stream, so a
(config, seed) pair replays tick-for-tick.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property

from . import geometry as geo
from .encoder import CombatObservation, discretize_distance, encode
from .learner import (
    QTableSet,
    begin_life,
    epsilon_for_lives,
    sarsa_update,
    select_action,
    terminal_update,
)
from .weapons import (
    ASSAULT_RIFLE,
    MID_Z,
    PriorityTables,
    SHIELD_GUN,
    ShootAction,
    WeaponSpec,
    actions_for,
    resolve_aim,
    reward_for,
    select_weapon,
)
from .weapons import CYLINDER_HEIGHT, CYLINDER_RADIUS

RL_AGENT_ID = 0
# An agent collects a pickup whose spot is within this distance.
PICKUP_RADIUS = 60.0
# The proximity index cuts the arena into this many cells along each axis.
INDEX_CELLS = 40
# The widest arena accepted.  _placeable admits features out to about
# 7e12 * size, so squared distances between agents and admitted features stay
# under 1e227 here; float `** 2` would overflow from a size near 1e141 on.
MAX_ARENA_SIZE = 1e100


# ---------------------------------------------------------------------------
# Static world description


@dataclass(frozen=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def a(self) -> tuple[float, float]:
        return (self.x1, self.y1)

    @property
    def b(self) -> tuple[float, float]:
        return (self.x2, self.y2)


@dataclass(frozen=True)
class Pit:
    x: float
    y: float
    radius: float


@dataclass(frozen=True)
class PickupSpot:
    kind: str  # "weapon" | "ammo"
    weapon: str | None
    x: float
    y: float


def _placeable(x: float, y: float, reach: float, cell: float) -> bool:
    """Whether the proximity index can place a feature of centre (x, y) and
    `reach`: all finite, `reach` >= 0, and a rounding step at |centre| +
    reach under a sixteenth of a cell.  The box edges and the distance tests
    each round by a few such steps, so the index's one-cell growth covers
    them; a far feature (say a pit at -1e20 of radius 1e20, whose right edge
    rounds to 0 though its test passes everywhere up to x = 8192) it could
    not cover."""
    return (
        all(map(math.isfinite, (x, y, reach)))
        and reach >= 0.0
        and math.ulp(max(abs(x), abs(y)) + reach) < cell / 16
    )


@dataclass(frozen=True)
class Arena:
    size: float
    walls: tuple[Wall, ...]
    pits: tuple[Pit, ...]
    spawn_points: tuple[tuple[float, float], ...]
    pickups: tuple[PickupSpot, ...]

    def __post_init__(self) -> None:
        # Movement clamps agents to [r, size - r]; this keeps them strictly
        # inside the boundary, which World.line_of_sight relies on.
        if not 2 * CYLINDER_RADIUS < self.size <= MAX_ARENA_SIZE:
            raise ValueError(
                f"arena size {self.size:g} must be wider than an agent and at "
                f"most {MAX_ARENA_SIZE:g}"
            )
        # The proximity index places each pit and pickup by its bounding box,
        # grown by one cell.  A negative radius would also kill like a
        # positive one but steer agents with a negative margin.
        cell = self.size / INDEX_CELLS
        for pit in self.pits:
            if not _placeable(pit.x, pit.y, pit.radius, cell):
                raise ValueError(
                    f"pits: {pit} needs a finite centre and radius >= 0, and "
                    "a rounding step at |centre| + radius under 1/16 of an "
                    f"index cell ({cell:g} uu)"
                )
        for spot in self.pickups:
            if not _placeable(spot.x, spot.y, PICKUP_RADIUS, cell):
                raise ValueError(
                    f"pickups: {spot} needs finite coordinates, and a rounding "
                    f"step at |centre| + {PICKUP_RADIUS:g} under 1/16 of an "
                    f"index cell ({cell:g} uu)"
                )
        if len(self.spawn_points) < 4:
            raise ValueError("arena needs at least 4 spawn points")
        for sx, sy in self.spawn_points:
            if not (0 < sx < self.size and 0 < sy < self.size):
                raise ValueError("spawn point outside the walkable region")
            for pit in self.pits:
                if geo.point_in_circle((sx, sy), (pit.x, pit.y), pit.radius):
                    raise ValueError("spawn point inside a pit")

    @property
    def blocking_segments(self) -> tuple[tuple[tuple[float, float], tuple[float, float]], ...]:
        segs = [(w.a, w.b) for w in self.walls]
        s = self.size
        segs += [
            ((0.0, 0.0), (s, 0.0)),
            ((s, 0.0), (s, s)),
            ((s, s), (0.0, s)),
            ((0.0, s), (0.0, 0.0)),
        ]
        return tuple(segs)

    @cached_property
    def proximity(self) -> tuple[float, dict]:
        """(cell, index): `index` maps the cell `(x // cell, y // cell)` of a
        point to `(pits, pickups)`, the pits as `(x, y, radius ** 2)` and the
        positions of the pickup spots in `self.pickups`, each in arena order,
        that are within reach of some point of that cell.  Cells that nothing
        reaches are left out.

        Each feature is entered in every cell that its bounding box touches,
        grown by one whole cell, so no point that the distance tests accept,
        rounding included, lies in a cell without it: __post_init__ admits
        only features whose rounding is well under a cell (_placeable).
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


@dataclass(frozen=True)
class OpponentProfile:
    level: int
    speed_fraction: float
    strafes: bool
    dodges: bool
    closes_distance: bool
    max_aim_error_deg: float
    fov_deg: float
    turn_rate_deg_s: float
    aim_lag_s: float
    combat_jump_prob_s: float

    def __post_init__(self) -> None:
        for name in ("fov_deg", "turn_rate_deg_s", "speed_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class PhysicsParams:
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

    def __post_init__(self) -> None:
        if self.tick_hz < 1:
            raise ValueError(f"tick_hz must be >= 1, got {self.tick_hz}")
        if self.decision_every < 1:
            raise ValueError(f"decision_every must be >= 1, got {self.decision_every}")

    @property
    def dt(self) -> float:
        return 1.0 / self.tick_hz


@dataclass(frozen=True)
class BehaviorParams:
    strafe_flip_min_s: float
    strafe_flip_max_s: float
    jump_prob_per_s: float
    dodge_radius: float
    waypoint_radius: float
    pit_avoid_margin: float
    fire_align_tolerance_deg: float
    engage_range: float
    scripted_stop_range: float

    def __post_init__(self) -> None:
        for name in (
            "dodge_radius", "waypoint_radius", "pit_avoid_margin",
            "fire_align_tolerance_deg", "engage_range", "scripted_stop_range",
        ):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.strafe_flip_min_s <= self.strafe_flip_max_s:
            raise ValueError(
                f"strafe_flip_min_s ({self.strafe_flip_min_s}) must not exceed "
                f"strafe_flip_max_s ({self.strafe_flip_max_s})"
            )


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class DamageEvent:
    tick: int
    attacker: int
    victim: int
    amount: float
    weapon: str
    self_inflicted: bool


@dataclass(frozen=True)
class KillEvent:
    tick: int
    killer: int
    victim: int


@dataclass(frozen=True)
class SuicideEvent:
    tick: int
    victim: int
    cause: str  # "pit" | "self-splash"


@dataclass(frozen=True)
class SpawnEvent:
    tick: int
    agent: int


@dataclass(frozen=True)
class PickupEvent:
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
        "last_attacker", "last_attack_self", "pit_dead",
        "alert_pos", "alert_timer",
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
        self.last_attacker = -1
        self.last_attack_self = False
        self.pit_dead = False
        self.alert_pos: tuple[float, float] | None = None
        self.alert_timer = 0.0

    @property
    def pos(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class FireCommand:
    weapon: str
    aim: tuple[float, float, float] | None  # None: locked on the target
    target_id: int


class Projectile:
    __slots__ = ("shooter", "weapon", "x", "y", "z", "vx", "vy", "vz", "remaining")

    def __init__(self, shooter: int, weapon: str, pos, vel, travel: float) -> None:
        self.shooter = shooter
        self.weapon = weapon
        self.x, self.y, self.z = pos
        self.vx, self.vy, self.vz = vel
        self.remaining = travel


class PickupState:
    __slots__ = ("spot", "timer")

    def __init__(self, spot: PickupSpot) -> None:
        self.spot = spot
        self.timer = 0.0  # <= 0 means available


# ---------------------------------------------------------------------------
# The learning shooter's controller


@dataclass
class LifeStats:
    hits: int = 0
    misses: int = 0
    reward: float = 0.0
    duration_s: float = 0.0
    cause: str = "game-end"


@dataclass(slots=True)
class GameStats:
    """The learning bot's counts for one game, named as the fields of
    harness.GameRecord; `kill_streak` is its run of kills since it last died."""

    shoot_s: dict[str, float]
    kills: int = 0
    deaths_by_others: int = 0
    suicides: int = 0
    kill_streak: int = 0
    max_kill_streak: int = 0
    weapons_collected: int = 0
    ammo_collected: int = 0
    time_moving_s: float = 0.0
    distance_uu: float = 0.0


class RlShooterController:
    """Online Sarsa(lambda) shooting: observe, pick a weapon and aim action,
    and feed realized damage back as reward on the following decision.

    With `learns = False` it plays a frozen policy: the same reward
    bookkeeping, but no writes to the tables, their traces or visit counts.
    """

    learns = True

    def __init__(
        self,
        tset: QTableSet,
        armory: dict[str, WeaponSpec],
        priority: PriorityTables,
        rng: random.Random,
    ) -> None:
        self.tset = tset
        self.armory = armory
        self.priority = priority
        self.rng = rng
        self.life_reward = 0.0
        self._open_interval(None)

    def _open_interval(self, pending: tuple | None) -> None:
        self.pending: tuple | None = pending  # (category, state, action)
        self.interval_damage = 0.0
        self.interval_shots = 0

    def _close_interval(self, next_state_action: tuple | None) -> None:
        """Reward the pending pair and, when learning, update it;
        `next_state_action` is (category, s', a')."""
        if self.pending is None or self.interval_shots == 0:
            # No decision yet, or the chosen action never discharged
            # (cooldown): no reward and no update.
            return
        r = reward_for(self.interval_damage)
        self.life_reward += r
        if not self.learns:
            return
        pcat, ps, pa = self.pending
        ptable = self.tset.tables[pcat]
        cfg = self.tset.cfg
        if next_state_action is None:
            terminal_update(ptable, ps, pa, r, cfg)
        else:
            ncat, ns, na = next_state_action
            if ncat == pcat:
                sarsa_update(ptable, ps, pa, r, ns, na, cfg)
            else:
                ntable = self.tset.tables[ncat]
                sarsa_update(
                    ptable, ps, pa, r, ps, pa, cfg,
                    next_value=ntable.value(ns, na),
                )
                # Credit does not flow across weapon categories.
                begin_life(ptable)

    def _observe(self, agent: AgentState, obs_distance: float, make_obs) -> tuple:
        """(weapon name, category, state) for a decision at this distance.

        `make_obs` builds the CombatObservation once the weapon (and its
        instant-hit flag) is known.
        """
        band = discretize_distance(obs_distance)
        weapon_name = select_weapon(agent.inventory, band, self.priority)
        weapon = self.armory[weapon_name]
        obs: CombatObservation = make_obs(weapon.instant_hit)
        return weapon_name, weapon.category, encode(obs)

    def _commit(self, weapon_name: str, category, state: int, action_idx: int):
        """Close the previous interval and open one for the chosen action."""
        self._close_interval((category, state, action_idx))
        self._open_interval((category, state, action_idx))
        return weapon_name, actions_for(category)[action_idx]

    def decide(
        self, agent: AgentState, obs_distance: float, make_obs
    ) -> tuple[str, ShootAction]:
        """One epsilon-greedy shooting decision against a visible opponent."""
        weapon_name, category, state = self._observe(agent, obs_distance, make_obs)
        eps = epsilon_for_lives(self.tset.cfg.schedule, self.tset.lives)
        action_idx, _ = select_action(self.tset.tables[category], state, eps, self.rng)
        return self._commit(weapon_name, category, state, action_idx)

    def on_shot(self) -> None:
        self.interval_shots += 1

    def on_damage_dealt(self, amount: float) -> None:
        self.interval_damage += amount

    def on_death(self) -> float:
        """Terminal update and episode bookkeeping; returns the life's reward."""
        self._close_interval(None)
        self.tset.lives += 1
        return self.on_game_end()

    def on_game_end(self) -> float:
        """Drop any open interval; the truncated life keeps its reward so far."""
        self._open_interval(None)
        reward = self.life_reward
        self.life_reward = 0.0
        if self.learns:
            self.tset.begin_life()
        return reward


class GreedyController(RlShooterController):
    """Frozen-policy variant: always greedy, never updates the tables."""

    learns = False

    def decide(self, agent, obs_distance, make_obs):
        weapon_name, category, state = self._observe(agent, obs_distance, make_obs)
        values = self.tset.tables[category].row(state)
        best = max(values)
        action_idx = self.rng.choice([a for a, v in enumerate(values) if v == best])
        return self._commit(weapon_name, category, state, action_idx)


class RandomController(GreedyController):
    """Uniform-random-action baseline; never updates the tables."""

    def decide(self, agent, obs_distance, make_obs):
        weapon_name, category, state = self._observe(agent, obs_distance, make_obs)
        return self._commit(weapon_name, category, state, self.rng.randrange(5))


# ---------------------------------------------------------------------------
# The world


def unit_towards(agent: AgentState, target: AgentState, dist: float) -> tuple[float, float]:
    """geo.normalize2 of the offset from agent to target, given its length
    `dist` (math.hypot of the offset)."""
    if dist == 0.0:
        return (1.0, 0.0)
    return ((target.x - agent.x) / dist, (target.y - agent.y) / dist)


class World:
    def __init__(
        self,
        arena: Arena,
        armory: dict[str, WeaponSpec],
        physics: PhysicsParams,
        behavior: BehaviorParams,
        profile: OpponentProfile,
        controller: RlShooterController,
        rng: random.Random,
        n_opponents: int = 3,
    ) -> None:
        self.arena = arena
        self.armory = armory
        self.physics = physics
        self.behavior = behavior
        self.profile = profile
        self.controller = controller
        self.rng = rng
        self.dt = physics.dt
        self.tick_count = 0
        self.segments = arena.blocking_segments
        # Agents are clamped to [CYLINDER_RADIUS, walk_max] on both axes.
        self.walk_max = arena.size - CYLINDER_RADIUS
        # Interior walls as (x1, y1, x2, y2, x2 - x1, y2 - y1), for line_of_sight.
        self.walls = tuple(
            (w.x1, w.y1, w.x2, w.y2, w.x2 - w.x1, w.y2 - w.y1) for w in arena.walls
        )
        self.waypoints = tuple(
            [(p.x, p.y) for p in arena.pickups] + list(arena.spawn_points)
        )

        self.agents = [AgentState(i) for i in range(n_opponents + 1)]
        self.projectiles: list[Projectile] = []
        # Values the per-tick loops read, computed once: pickups as
        # (state, x, y, is_weapon), the arena's proximity index and pit
        # steering as (x, y, margin, look-ahead).
        self.pickups = tuple(
            (PickupState(spot), spot.x, spot.y, spot.kind == "weapon")
            for spot in arena.pickups
        )
        self.cell, self.nearby = arena.proximity
        steering = []
        for pit in arena.pits:
            margin = pit.radius + behavior.pit_avoid_margin
            steering.append((pit.x, pit.y, margin, margin * 2.5))
        self.pit_steering = tuple(steering)

        # The learning bot's bookkeeping: its current life, which began at
        # life_start_tick, its last finished life until the harness takes it,
        # and its game.
        self.life = LifeStats()
        self.life_start_tick = 0
        self.completed_life: LifeStats | None = None
        self.game = GameStats(shoot_s={name: 0.0 for name in armory})

        for i, agent in enumerate(self.agents):
            self._spawn(agent, self.arena.spawn_points[i % len(self.arena.spawn_points)])

    # -- spawning ----------------------------------------------------------

    def _spawn(self, agent: AgentState, pos: tuple[float, float]) -> None:
        agent.reset()
        agent.x, agent.y = pos
        agent.yaw = self.rng.uniform(-180.0, 180.0)
        agent.inventory = {ASSAULT_RIFLE: self.physics.spawn_assault_ammo, SHIELD_GUN: 1}
        agent.alive = True
        agent.waypoint = self.rng.choice(self.waypoints)
        agent.strafe_dir = self.rng.choice((-1.0, 1.0))
        if agent.id == RL_AGENT_ID:
            self.life = LifeStats()
            self.life_start_tick = self.tick_count

    def _respawn_point(self, agent: AgentState) -> tuple[float, float]:
        enemies = [a for a in self.agents if a.alive and a.id != agent.id]
        if not enemies:
            return self.rng.choice(self.arena.spawn_points)
        best = None
        best_d = -1.0
        for sp in self.arena.spawn_points:
            d = min(math.hypot(sp[0] - e.x, sp[1] - e.y) for e in enemies)
            if d > best_d:
                best_d = d
                best = sp
        return best

    # -- perception --------------------------------------------------------

    def line_of_sight(self, x1: float, y1: float, x2: float, y2: float) -> bool:
        """True if no wall blocks the segment between two agent positions.

        Equal to testing every blocking segment with segments_intersect, for
        endpoints strictly inside the arena, which agents always are: the
        boundary can never block them, so only the interior walls are tested.
        The sign tests are segments_intersect's, with the same floating-point
        expressions; only its collinear and touching cases are handed to it.
        """
        dx, dy = x2 - x1, y2 - y1
        for wx1, wy1, wx2, wy2, ex, ey in self.walls:
            d1 = ex * (y1 - wy1) - ey * (x1 - wx1)
            d2 = ex * (y2 - wy1) - ey * (x2 - wx1)
            if (d1 > 0) == (d2 > 0) and d1 != 0 and d2 != 0:
                continue  # both ends strictly on one side of the wall's line
            d3 = dx * (wy1 - y1) - dy * (wx1 - x1)
            d4 = dx * (wy2 - y1) - dy * (wx2 - x1)
            if (d3 > 0) == (d4 > 0) and d3 != 0 and d4 != 0:
                continue  # the wall strictly on one side of the segment's line
            if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
                return False
            if geo.segments_intersect((x1, y1), (x2, y2), (wx1, wy1), (wx2, wy2)):
                return False
        return True

    def nearest_visible(
        self, agent: AgentState, fov_deg: float
    ) -> tuple[AgentState, float, float] | None:
        """The nearest living opponent in view and in sight, as (target,
        distance, bearing from the agent), or None.  The controllers reuse
        the distance and bearing: no agent moves between an agent's
        perception and its own _move."""
        best = None
        best_d = math.inf
        # Computed in the loop only for a view cone; otherwise for the target.
        best_bearing = bearing = None
        ax, ay, yaw = agent.x, agent.y, agent.yaw
        for other in self.agents:
            if other.id == agent.id or not other.alive:
                continue
            ox, oy = other.x, other.y
            d = math.hypot(ox - ax, oy - ay)
            if d >= best_d:
                continue
            if fov_deg < 180.0:
                # abs(normalize_angle(bearing - yaw)), with its fast path inlined.
                bearing = geo.bearing_deg((ax, ay), (ox, oy))
                a = bearing - yaw + 180.0
                off = a - 180.0 if 0.0 <= a < 360.0 else geo.normalize_angle(bearing - yaw)
                if abs(off) > fov_deg:
                    continue
            if self.line_of_sight(ax, ay, ox, oy):
                best = other
                best_d = d
                best_bearing = bearing
        if best is None:
            return None
        if best_bearing is None:
            best_bearing = geo.bearing_deg((ax, ay), (best.x, best.y))
        return best, best_d, best_bearing

    def observation_for(
        self, agent: AgentState, target: AgentState, instant_hit: bool
    ) -> CombatObservation:
        ux, uy = geo.normalize2((target.x - agent.x, target.y - agent.y))
        rvx = target.vx - agent.vx
        rvy = target.vy - agent.vy
        radial = rvx * ux + rvy * uy
        tangential = ux * rvy - uy * rvx
        facing = geo.normalize_angle(
            target.yaw - geo.bearing_deg((target.x, target.y), (agent.x, agent.y))
        )
        return CombatObservation(
            distance=math.hypot(target.x - agent.x, target.y - agent.y),
            rel_velocity=(radial, tangential),
            opponent_jumping=target.jump_t >= 0.0,
            facing_angle=facing,
            weapon_instant_hit=instant_hit,
        )

    # -- tick --------------------------------------------------------------

    def tick(self) -> list[Event]:
        dt = self.dt
        self.tick_count += 1
        t = self.tick_count

        damage_events: list[DamageEvent] = []
        death_events: list[Event] = []
        spawn_events: list[SpawnEvent] = []
        pickup_events: list[PickupEvent] = []

        # Respawns.
        for agent in self.agents:
            if not agent.alive:
                agent.respawn_timer -= dt
                if agent.respawn_timer <= 0.0:
                    self._spawn(agent, self._respawn_point(agent))
                    spawn_events.append(SpawnEvent(t, agent.id))

        # Controls and movement.
        for agent in self.agents:
            if not agent.alive:
                continue
            if agent.id == RL_AGENT_ID:
                self._control_rl(agent, dt)
            else:
                self._control_scripted(agent, dt)
            self._move(agent, dt)

        # Pit deaths.  Nobody moves again this tick, so the pickups reuse
        # the index entries looked up here.
        near = self._pit_deaths()

        # Firing.
        damage_records: list[tuple[int, int, float, str, bool]] = []
        for agent in self.agents:
            if not agent.alive:
                continue
            cooldown = agent.cooldown - dt
            agent.cooldown = cooldown if cooldown > 0.0 else 0.0  # max(0.0, cooldown)
            cmd = agent.fire_command
            if cmd is None:
                continue
            if agent.id == RL_AGENT_ID:
                self.game.shoot_s[cmd.weapon] += dt
            if agent.cooldown > 0.0:
                continue
            self._discharge(agent, cmd, damage_records)

        # Projectiles.
        self._advance_projectiles(dt, damage_records)

        # Apply damage.
        for attacker, victim_id, amount, weapon, self_inflicted in damage_records:
            victim = self.agents[victim_id]
            if not victim.alive:
                continue
            amount = min(amount, victim.health)
            victim.health -= amount
            victim.last_attacker = attacker
            victim.last_attack_self = self_inflicted
            damage_events.append(
                DamageEvent(t, attacker, victim_id, amount, weapon, self_inflicted)
            )
            if attacker == RL_AGENT_ID and not self_inflicted:
                self.controller.on_damage_dealt(amount)
            if not self_inflicted:
                shooter = self.agents[attacker]
                if shooter.alive:
                    victim.alert_pos = (shooter.x, shooter.y)
                    victim.alert_timer = 4.0
            if victim.health <= 0.0:
                victim.alive = False

        # Deaths, in agent order, the bot first: its own death ends its kill
        # streak before its kills of this tick count.
        for agent in self.agents:
            if agent.alive:
                continue
            if agent.pit_dead:
                death_events.append(SuicideEvent(t, agent.id, "pit"))
            elif agent.health <= 0.0 and agent.respawn_timer == 0.0:
                if agent.last_attack_self:
                    death_events.append(SuicideEvent(t, agent.id, "self-splash"))
                else:
                    death_events.append(KillEvent(t, agent.last_attacker, agent.id))
                    if agent.last_attacker == RL_AGENT_ID:
                        game = self.game
                        game.kills += 1
                        game.kill_streak += 1
                        game.max_kill_streak = max(game.max_kill_streak, game.kill_streak)
            else:
                continue  # already dead, waiting to respawn
            agent.pit_dead = False
            agent.respawn_timer = self.physics.respawn_delay_s
            agent.fire_command = None
            if agent.id == RL_AGENT_ID:
                self._finalize_life(death_events[-1])

        self._pickups(near, dt, pickup_events)

        return [*damage_events, *death_events, *spawn_events, *pickup_events]

    def _life_stats(self, reward: float, cause: str) -> LifeStats:
        return replace(
            self.life, reward=reward,
            duration_s=(self.tick_count - self.life_start_tick) * self.dt, cause=cause,
        )

    def _finalize_life(self, death_event: Event) -> None:
        game = self.game
        if isinstance(death_event, SuicideEvent):
            cause = f"suicide-{death_event.cause}"
            game.suicides += 1
        else:
            cause = "killed"
            game.deaths_by_others += 1
        game.kill_streak = 0
        self.completed_life = self._life_stats(self.controller.on_death(), cause)
        # finalize_truncated_life reads these while the bot waits to respawn.
        self.life = LifeStats()
        self.life_start_tick = self.tick_count

    def finalize_truncated_life(self) -> LifeStats:
        """Close the in-progress life at game end without counting a death."""
        return self._life_stats(self.controller.on_game_end(), "game-end")

    def _pit_deaths(self) -> list[tuple[AgentState, tuple]]:
        """Kill each grounded living agent standing in a pit, testing only the
        pits that the proximity index lists for its cell.  Returns
        (agent, (pits, pickups)) for each living agent in a listed cell."""
        cell, nearby = self.cell, self.nearby
        near = []
        for agent in self.agents:
            if not agent.alive:
                continue
            entry = nearby.get((agent.x // cell, agent.y // cell))
            if entry is None:
                continue
            near.append((agent, entry))
            if agent.jump_t < 0.0:
                for px, py, r_sq in entry[0]:
                    if (agent.x - px) ** 2 + (agent.y - py) ** 2 <= r_sq:
                        agent.pit_dead = True
                        agent.alive = False
                        break
        return near

    def _pickups(self, near: list, dt: float, events: list[PickupEvent]) -> None:
        """Count down the spots' timers and hand out the available ones: for
        each, in arena order, the first living agent in agent order within
        PICKUP_RADIUS collects it.  Weapon spots serve only the learning bot.
        Only the spots that the proximity index lists for a living agent's
        cell (`near`, from _pit_deaths this tick) are tested."""
        spots = {i for agent, (_, s) in near if agent.alive for i in s}
        if not spots:
            # Most ticks (four in five in frozen-eval) no living agent is
            # near a spot, and only the timers move.
            for pickup, _, _, _ in self.pickups:
                if not pickup.timer <= 0.0:
                    pickup.timer -= dt
            return
        living = [agent for agent in self.agents if agent.alive]
        rl_living = living[:1] if self.agents[RL_AGENT_ID].alive else []
        for i, (pickup, sx, sy, weapon_spot) in enumerate(self.pickups):
            if not pickup.timer <= 0.0:
                pickup.timer -= dt
                continue
            if i not in spots:
                continue
            for agent in rl_living if weapon_spot else living:
                if (agent.x - sx) ** 2 + (agent.y - sy) ** 2 <= PICKUP_RADIUS ** 2:
                    self._collect(agent, pickup, events)
                    break

    def _collect(
        self, agent: AgentState, pickup: PickupState, events: list[PickupEvent]
    ) -> None:
        spot = pickup.spot
        if spot.kind == "weapon":
            agent.inventory[spot.weapon] = (
                agent.inventory.get(spot.weapon, 0) + self.physics.weapon_pickup_ammo
            )
            item = spot.weapon
            if agent.id == RL_AGENT_ID:
                self.game.weapons_collected += 1
        else:
            weapon = agent.current_weapon
            if weapon == SHIELD_GUN:
                weapon = ASSAULT_RIFLE
            agent.inventory[weapon] = (
                agent.inventory.get(weapon, 0) + self.physics.ammo_pickup_amount
            )
            item = "ammo"
            if agent.id == RL_AGENT_ID:
                self.game.ammo_collected += 1
        pickup.timer = self.physics.pickup_respawn_s
        events.append(PickupEvent(self.tick_count, agent.id, item))

    # -- controllers -------------------------------------------------------

    def _control_rl(self, agent: AgentState, dt: float) -> None:
        decision_tick = self.tick_count % self.physics.decision_every == 0
        seen = self.nearest_visible(agent, self.physics.rl_fov_deg)
        target, dist, bearing = seen or (None, 0.0, 0.0)

        if decision_tick:
            if target is None:
                agent.fire_command = None
            else:
                weapon_name, action = self.controller.decide(
                    agent,
                    dist,
                    lambda instant: self.observation_for(agent, target, instant),
                )
                agent.current_weapon = weapon_name
                aim = resolve_aim(
                    action, (agent.x, agent.y), (target.x, target.y, target.z),
                    self.armory[weapon_name],
                )
                agent.fire_command = FireCommand(weapon_name, aim, target.id)
                if self.rng.random() < self.behavior.jump_prob_per_s * dt * self.physics.decision_every:
                    self._start_jump(agent)

        # Movement: close to fighting range, strafe there, patrol otherwise.
        if target is not None:
            ux, uy = unit_towards(agent, target, dist)
            if dist > self.behavior.engage_range:
                self._approach(agent, ux, uy, dist, dt, 1.0, self.behavior.engage_range * 0.35)
            else:
                self._combat_strafe(agent, ux, uy, dt, 1.0)
            agent.yaw = geo.turn_towards(
                agent.yaw, bearing, self.physics.rl_turn_rate_deg_s * dt
            )
        else:
            agent.fire_command = None
            self._patrol(agent, 1.0)

    def _control_scripted(self, agent: AgentState, dt: float) -> None:
        profile = self.profile
        seen = self.nearest_visible(agent, profile.fov_deg)
        if seen is None:
            agent.fire_command = None
            if agent.alert_timer > 0.0 and agent.alert_pos is not None:
                # Taking fire from outside the view cone: turn and close in.
                agent.alert_timer -= dt
                bearing = geo.bearing_deg((agent.x, agent.y), agent.alert_pos)
                agent.yaw = geo.turn_towards(
                    agent.yaw, bearing, profile.turn_rate_deg_s * dt
                )
                ux, uy = geo.normalize2(
                    (agent.alert_pos[0] - agent.x, agent.alert_pos[1] - agent.y)
                )
                speed = self.physics.base_speed * profile.speed_fraction
                agent.vx = ux * speed
                agent.vy = uy * speed
            else:
                self._patrol(agent, profile.speed_fraction)
            return
        agent.alert_timer = 0.0

        target, dist, bearing = seen
        agent.yaw = geo.turn_towards(
            agent.yaw, bearing, profile.turn_rate_deg_s * dt
        )

        # Movement while engaged.
        if profile.closes_distance:
            ux, uy = unit_towards(agent, target, dist)
            self._approach(agent, ux, uy, dist, dt, profile.speed_fraction,
                           self.behavior.scripted_stop_range)
        elif profile.strafes:
            ux, uy = unit_towards(agent, target, dist)
            self._combat_strafe(agent, ux, uy, dt, profile.speed_fraction)
        else:
            agent.vx = agent.vy = 0.0  # static during combat

        if profile.dodges:
            self._dodge_projectiles(agent)
        if profile.combat_jump_prob_s > 0.0 and agent.jump_t < 0.0:
            if self.rng.random() < profile.combat_jump_prob_s * dt:
                self._start_jump(agent)

        # abs(normalize_angle(bearing - yaw)), with its fast path inlined.
        a = bearing - agent.yaw + 180.0
        off = a - 180.0 if 0.0 <= a < 360.0 else geo.normalize_angle(bearing - agent.yaw)
        if abs(off) <= self.behavior.fire_align_tolerance_deg:
            agent.fire_command = FireCommand(ASSAULT_RIFLE, None, target.id)
        else:
            agent.fire_command = None

    def _patrol(self, agent: AgentState, speed_fraction: float) -> None:
        wp = agent.waypoint
        if wp is None or math.hypot(wp[0] - agent.x, wp[1] - agent.y) < (
            self.behavior.waypoint_radius
        ):
            agent.waypoint = wp = self.rng.choice(self.waypoints)
        dx, dy = wp[0] - agent.x, wp[1] - agent.y
        ux, uy = self._veer_around_pits(agent, *geo.normalize2((dx, dy)))
        speed = self.physics.base_speed * speed_fraction
        agent.vx = ux * speed
        agent.vy = uy * speed
        agent.yaw = geo.bearing_deg((0.0, 0.0), (ux, uy))

    def _veer_around_pits(self, agent: AgentState, ux: float, uy: float):
        """Steer a purposeful heading around pits; sidestepping stays blind."""
        for pit_x, pit_y, margin, look_ahead in self.pit_steering:
            px, py = pit_x - agent.x, pit_y - agent.y
            along = px * ux + py * uy
            if 0.0 < along < look_ahead:
                side = ux * py - uy * px
                if abs(side) < margin:
                    sign = 1.0 if side <= 0 else -1.0
                    return geo.normalize2((ux - sign * uy, uy + sign * ux))
        return (ux, uy)

    def _strafe_dir(self, agent: AgentState, dt: float) -> float:
        """Count the strafe timer down; when it runs out, draw a new side
        and a new period."""
        agent.strafe_timer -= dt
        if agent.strafe_timer <= 0.0:
            agent.strafe_dir = self.rng.choice((-1.0, 1.0))
            agent.strafe_timer = self.rng.uniform(
                self.behavior.strafe_flip_min_s, self.behavior.strafe_flip_max_s
            )
        return agent.strafe_dir

    def _combat_strafe(
        self, agent: AgentState, ux: float, uy: float, dt: float, speed_fraction: float
    ) -> None:
        """Strafe across (ux, uy), the unit vector towards the target."""
        side = self._strafe_dir(agent, dt)
        speed = self.physics.base_speed * speed_fraction
        agent.vx = -uy * side * speed
        agent.vy = ux * side * speed

    def _approach(
        self,
        agent: AgentState,
        ux: float,
        uy: float,
        dist: float,
        dt: float,
        speed_fraction: float,
        stop_range: float,
    ) -> None:
        """Close in along (ux, uy), the unit vector towards a target `dist`
        away, down to `stop_range`, then strafe."""
        speed = self.physics.base_speed * speed_fraction
        if dist > stop_range:
            # Advance with a diagonal strafe component.
            side = self._strafe_dir(agent, dt)
            sx, sy = -uy * side, ux * side
            mx, my = geo.normalize2((ux + 0.6 * sx, uy + 0.6 * sy))
            mx, my = self._veer_around_pits(agent, mx, my)
            agent.vx = mx * speed
            agent.vy = my * speed
        else:
            self._combat_strafe(agent, ux, uy, dt, speed_fraction)

    def _dodge_projectiles(self, agent: AgentState) -> None:
        radius_sq = self.behavior.dodge_radius ** 2
        for proj in self.projectiles:
            dx, dy = agent.x - proj.x, agent.y - proj.y
            if dx * dx + dy * dy > radius_sq:
                continue
            if dx * proj.vx + dy * proj.vy <= 0.0:
                continue  # moving away
            # Sidestep perpendicular to the projectile's course.
            px, py = geo.normalize2((proj.vx, proj.vy))
            side = 1.0 if (px * dy - py * dx) <= 0 else -1.0
            speed = self.physics.base_speed
            agent.vx = -py * side * speed
            agent.vy = px * side * speed
            if agent.jump_t < 0.0:
                self._start_jump(agent)
            break

    def _start_jump(self, agent: AgentState) -> None:
        if agent.jump_t < 0.0:
            agent.jump_t = 0.0

    # -- physics -----------------------------------------------------------

    def _move(self, agent: AgentState, dt: float) -> None:
        if agent.jump_t >= 0.0:
            agent.jump_t += dt
            dur = self.physics.jump_duration_s
            if agent.jump_t >= dur:
                agent.jump_t = -1.0
                agent.z = 0.0
            else:
                frac = agent.jump_t / dur
                agent.z = 4.0 * self.physics.jump_height_uu * frac * (1.0 - frac)

        x, y = agent.x, agent.y
        nx = x + agent.vx * dt
        ny = y + agent.vy * dt
        # min(max(n, CYLINDER_RADIUS), walk_max), exact because the radius is
        # below walk_max (Arena requires size > 2 * CYLINDER_RADIUS).
        lo, hi = CYLINDER_RADIUS, self.walk_max
        if nx < lo:
            nx = lo
        elif nx > hi:
            nx = hi
        if ny < lo:
            ny = lo
        elif ny > hi:
            ny = hi
        if nx == x and ny == y:
            moved = 0.0  # no step: the same outcome whatever line_of_sight says
        elif self.line_of_sight(x, y, nx, ny):
            moved = math.hypot(nx - x, ny - y)
            agent.x, agent.y = nx, ny
        else:
            moved = 0.0
        if agent.id == RL_AGENT_ID:
            game = self.game
            game.distance_uu += moved
            if moved > 1e-9:
                game.time_moving_s += dt

    # -- firing ------------------------------------------------------------

    def _ray(self, agent: AgentState, aim_point):
        """(muzzle, unit direction, length) of the line from the agent's eye
        to `aim_point`, or None when the two coincide."""
        ox, oy, oz = agent.x, agent.y, agent.z + self.physics.eye_height
        dx = aim_point[0] - ox
        dy = aim_point[1] - oy
        dz = aim_point[2] - oz
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            return None
        return (ox, oy, oz), (dx / norm, dy / norm, dz / norm), norm

    def _aim_point(
        self, agent: AgentState, cmd: FireCommand
    ) -> tuple[float, float, float] | None:
        if cmd.aim is not None:
            return cmd.aim
        target = self.agents[cmd.target_id]
        if not target.alive:
            return None
        # Tracking trails a moving target by the shooter's reaction lag.
        if agent.id == RL_AGENT_ID:
            lag = self.physics.aim_lag_s
        else:
            lag = self.profile.aim_lag_s
        return (target.x - target.vx * lag, target.y - target.vy * lag, MID_Z)

    def _discharge(
        self,
        agent: AgentState,
        cmd: FireCommand,
        damage_records: list,
    ) -> None:
        weapon = self.armory[cmd.weapon]
        aim_point = self._aim_point(agent, cmd)
        if aim_point is None:
            return
        if cmd.weapon != SHIELD_GUN:
            if agent.inventory.get(cmd.weapon, 0) <= 0:
                return
            agent.inventory[cmd.weapon] -= 1
        agent.cooldown = weapon.fire_interval

        is_rl = agent.id == RL_AGENT_ID
        if is_rl:
            self.controller.on_shot()

        if weapon.melee_range > 0.0:
            hit = self._melee(agent, weapon, aim_point, damage_records)
        elif weapon.is_hitscan:
            hit = False
            for _ in range(weapon.pellets):
                hit |= self._hitscan(agent, weapon, aim_point, damage_records)
        else:
            # A rocket is counted a miss at launch; _detonate may make it a hit.
            self._launch_projectile(agent, weapon, aim_point)
            return
        if is_rl:
            if hit:
                self.life.hits += 1
            else:
                self.life.misses += 1

    def _melee(self, agent, weapon: WeaponSpec, aim_point, damage_records) -> bool:
        ax, ay = agent.x, agent.y
        aim_yaw = geo.bearing_deg((ax, ay), (aim_point[0], aim_point[1]))
        best = None
        best_d = weapon.melee_range
        for other in self.agents:
            if other.id == agent.id or not other.alive:
                continue
            d = math.hypot(other.x - agent.x, other.y - agent.y)
            if d > best_d:
                continue
            bearing = geo.bearing_deg((ax, ay), (other.x, other.y))
            off = abs(geo.normalize_angle(bearing - aim_yaw))
            if off > 60.0:
                continue
            if self.line_of_sight(ax, ay, other.x, other.y):
                best = other
                best_d = d
        if best is None:
            return False
        damage_records.append(
            (agent.id, best.id, weapon.damage_per_hit, weapon.name, False)
        )
        return True

    def _hitscan(self, agent, weapon: WeaponSpec, aim_point, damage_records) -> bool:
        ray = self._ray(agent, aim_point)
        if ray is None:
            return False
        origin, (dx, dy, dz), _ = ray

        # Opponents miss by up to their profile's aim error, drawn even at 0;
        # the bot's shots scatter by the weapon's spread.
        is_rl = agent.id == RL_AGENT_ID
        spread = weapon.spread_deg if is_rl else self.profile.max_aim_error_deg
        if spread > 0.0 or not is_rl:
            spread_yaw = math.radians(self.rng.uniform(-spread, spread))
            c, s = math.cos(spread_yaw), math.sin(spread_yaw)
            dx, dy = dx * c - dy * s, dx * s + dy * c

        direction = (dx, dy, dz)
        best_t = math.inf
        victim = None
        for other in self.agents:
            if other.id == agent.id or not other.alive:
                continue
            t = geo.ray_cylinder_t(
                origin, direction, (other.x, other.y), other.z,
                CYLINDER_RADIUS, CYLINDER_HEIGHT,
            )
            if t is not None and t < best_t:
                best_t = t
                victim = other
        if victim is None:
            return False
        for a, b in self.segments:
            t_wall = geo.ray_segment_t((origin[0], origin[1]), (dx, dy), a, b)
            if t_wall is not None and t_wall < best_t:
                return False
        damage_records.append(
            (agent.id, victim.id, weapon.damage_per_hit, weapon.name, False)
        )
        return True

    def _launch_projectile(self, agent, weapon: WeaponSpec, aim_point) -> None:
        ray = self._ray(agent, aim_point)
        if ray is None:
            return
        origin, (ux, uy, uz), norm = ray
        speed = weapon.projectile_speed
        if agent.id == RL_AGENT_ID:
            self.life.misses += 1
        self.projectiles.append(Projectile(
            agent.id, weapon.name, origin, (ux * speed, uy * speed, uz * speed), norm
        ))

    def _advance_projectiles(self, dt: float, damage_records: list) -> None:
        survivors: list[Projectile] = []
        for proj in self.projectiles:
            weapon = self.armory[proj.weapon]
            step = weapon.projectile_speed * dt
            end = (proj.x + proj.vx * dt, proj.y + proj.vy * dt, proj.z + proj.vz * dt)

            # Direct hit on an agent (shooter excluded: self harm is splash only).
            direction = (proj.vx * dt, proj.vy * dt, proj.vz * dt)
            best_t = math.inf
            victim = None
            for other in self.agents:
                if other.id == proj.shooter or not other.alive:
                    continue
                t = geo.ray_cylinder_t(
                    (proj.x, proj.y, proj.z), direction, other.pos,
                    other.z, CYLINDER_RADIUS, CYLINDER_HEIGHT,
                )
                if t is not None and t <= 1.0 and t < best_t:
                    best_t = t
                    victim = other
            wall_t = math.inf
            for a, b in self.segments:
                t = geo.ray_segment_t((proj.x, proj.y), (direction[0], direction[1]), a, b)
                if t is not None and t <= 1.0 and t < wall_t:
                    wall_t = t

            if victim is not None and best_t <= wall_t:
                point = (
                    proj.x + direction[0] * best_t,
                    proj.y + direction[1] * best_t,
                    proj.z + direction[2] * best_t,
                )
                self._detonate(proj, weapon, point, victim, damage_records)
                continue
            if wall_t < math.inf:
                point = (
                    proj.x + direction[0] * wall_t,
                    proj.y + direction[1] * wall_t,
                    proj.z + direction[2] * wall_t,
                )
                self._detonate(proj, weapon, point, None, damage_records)
                continue
            proj.remaining -= step
            if proj.remaining <= 0.0 or end[2] < 0.0:
                self._detonate(proj, weapon, end, None, damage_records)
                continue
            proj.x, proj.y, proj.z = end
            survivors.append(proj)
        self.projectiles = survivors

    def _detonate(
        self,
        proj: Projectile,
        weapon: WeaponSpec,
        point: tuple[float, float, float],
        direct_victim: AgentState | None,
        damage_records: list,
    ) -> None:
        damaged_opponent = False
        if direct_victim is not None:
            damage_records.append(
                (proj.shooter, direct_victim.id, weapon.damage_per_hit,
                 weapon.name, False)
            )
            damaged_opponent = True
        if weapon.splash_radius > 0.0:
            for other in self.agents:
                if not other.alive or other is direct_victim:
                    continue
                if other.id == proj.shooter and not weapon.self_damage:
                    continue
                dx = other.x - point[0]
                dy = other.y - point[1]
                dz = (other.z + MID_Z) - point[2]
                d = math.sqrt(dx * dx + dy * dy + dz * dz)
                if d >= weapon.splash_radius:
                    continue
                # A rocket can detonate on the outer wall, so splash is
                # tested against every blocking segment, boundary included.
                splash_from = (point[0], point[1])
                if any(
                    geo.segments_intersect(splash_from, other.pos, a, b)
                    for a, b in self.segments
                ):
                    continue
                amount = weapon.damage_per_hit * (1.0 - d / weapon.splash_radius)
                if amount <= 0.0:
                    continue
                self_inflicted = other.id == proj.shooter
                damage_records.append(
                    (proj.shooter, other.id, amount, weapon.name, self_inflicted)
                )
                if not self_inflicted:
                    damaged_opponent = True
        # Each projectile detonates once, so this turns its launch miss into
        # a hit at most once.
        if damaged_opponent and proj.shooter == RL_AGENT_ID:
            self.life.misses -= 1
            self.life.hits += 1
