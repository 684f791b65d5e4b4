"""Deterministic fixed-timestep arena: agents, projectiles, damage and deaths.

The world advances at a fixed physics tick.  The learning bot takes a
shooting decision every few ticks; scripted opponents run a skill-profile
behavior every tick.  All randomness flows through one seeded stream, so a
(config, seed) pair replays tick-for-tick.
"""

from __future__ import annotations

import math
import random
import sys
from functools import lru_cache
from typing import NamedTuple

from . import geometry as geo
from .encoder import CombatObservation, discretize_distance, encode
from .learner import (
    N_ACTIONS,
    QTable,
    QTableSet,
    begin_life,
    epsilon_for_lives,
    greedy_action,
    sarsa_update,
    select_action,
    terminal_update,
)
from .weapons import (
    ACTION_LABELS,
    ASSAULT_RIFLE,
    MID_Z,
    PriorityTables,
    SHIELD_GUN,
    WeaponSpec,
    check_params,
    resolve_aim,
    reward_for,
    select_weapon,
)
from .weapons import CYLINDER_HEIGHT, CYLINDER_RADIUS

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
        for sx, sy in self.spawn_points:
            if not (0 < sx < self.size and 0 < sy < self.size):
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


class RlShooterController:
    """Online Sarsa(lambda) shooting: observe, pick a weapon and aim action,
    and feed realized damage back as reward on the following decision.

    With `learns = False` it plays a frozen policy: the same reward
    bookkeeping, but no writes to the tables, their traces or visit counts.
    `decide` is the one decision body; the frozen variants override only
    `_choose`, which picks the action for a state.
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
        tables, cfg = self.tset.tables, self.tset.cfg
        ptable = tables[pcat]
        if next_state_action is None:
            terminal_update(ptable, ps, pa, r, cfg)
            return
        ncat, ns, na = next_state_action
        sarsa_update(ptable, ps, pa, r, ns, na, cfg, next_value=tables[ncat].value(ns, na))
        if ncat != pcat:
            # Credit does not flow across weapon categories.
            begin_life(ptable)

    def _choose(self, table: QTable, state: int) -> int:
        """The action for `state`: epsilon-greedy under the schedule."""
        eps = epsilon_for_lives(self.tset.cfg.schedule, self.tset.lives)
        return select_action(table, state, eps, self.rng)[0]

    def decide(self, agent: AgentState, target: AgentState, dist: float) -> FireCommand:
        """One shooting decision against `target`, visible at distance `dist`
        (as nearest_visible measured it): pick the weapon, encode the state,
        choose an action, close the previous interval and open one for the
        chosen pair.  Returns the bot's command."""
        weapon_name = select_weapon(agent.inventory, discretize_distance(dist), self.priority)
        weapon = self.armory[weapon_name]
        category = weapon.category
        state = encode(observation(agent, target, dist, weapon.instant_hit))
        action_idx = self._choose(self.tset.tables[category], state)
        self._close_interval((category, state, action_idx))
        self._open_interval((category, state, action_idx))
        aim = resolve_aim(
            ACTION_LABELS[category][action_idx], (agent.x, agent.y),
            (target.x, target.y, target.z), weapon,
        )
        return FireCommand(weapon_name, aim, target.id)

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
    # Bound in each class body rather than inherited, so that a wrapper of a
    # class's own `decide` counts that class's decisions, and only once.
    decide = RlShooterController.decide

    def _choose(self, table: QTable, state: int) -> int:
        return greedy_action(table, state, self.rng)


class RandomController(GreedyController):
    """Uniform-random-action baseline; never updates the tables."""

    decide = RlShooterController.decide

    def _choose(self, table: QTable, state: int) -> int:
        return self.rng.randrange(N_ACTIONS)


# ---------------------------------------------------------------------------
# The world


def unit_towards(agent: AgentState, target: AgentState, dist: float) -> tuple[float, float]:
    """geo.normalize2 of the offset from agent to target, given its length
    `dist` (math.hypot of the offset)."""
    if dist == 0.0:
        return (1.0, 0.0)
    return ((target.x - agent.x) / dist, (target.y - agent.y) / dist)


def observation(
    agent: AgentState, target: AgentState, dist: float, instant_hit: bool
) -> CombatObservation:
    """What the bot perceives of `target` at distance `dist` (math.hypot of
    the offset from agent to target), with relative velocity in the
    engagement frame."""
    ux, uy = unit_towards(agent, target, dist)
    rvx = target.vx - agent.vx
    rvy = target.vy - agent.vy
    facing = geo.normalize_angle(
        target.yaw - geo.bearing_deg((target.x, target.y), (agent.x, agent.y))
    )
    return CombatObservation(
        distance=dist,
        rel_velocity=(rvx * ux + rvy * uy, ux * rvy - uy * rvx),
        opponent_jumping=target.jump_t >= 0.0,
        facing_angle=facing,
        weapon_instant_hit=instant_hit,
    )


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
        # Agents are clamped to [CYLINDER_RADIUS, walk_max] on both axes,
        # strictly inside the boundary; the difference is exact at every
        # accepted size.
        self.walk_max = arena.size - CYLINDER_RADIUS
        # A margin far above the rounding of line_of_sight and _hitscan at
        # the arena's size C, which bounds every coordinate they read: each
        # proves its early-out with it.
        margin = 1e-9 * arena.size
        self.reach_sq = CYLINDER_RADIUS * CYLINDER_RADIUS + margin * arena.size
        # Interior walls as (x1, y1, x2, y2, x2 - x1, y2 - y1, vertical, lo,
        # hi), for line_of_sight, which proves its tests for the vertical
        # ones; [lo, hi] is the wall's y-range grown by the margin.  Every
        # wall as a segment ((x1, y1), (x2, y2)), the boundary's four last,
        # for projectiles and splash.
        walls = []
        segments = []
        for w in arena.walls:
            ex, ey = w.x2 - w.x1, w.y2 - w.y1
            walls.append((w.x1, w.y1, w.x2, w.y2, ex, ey, ex == 0.0 and 1.0 <= abs(ey),
                          min(w.y1, w.y2) - margin, max(w.y1, w.y2) + margin))
            segments.append(((w.x1, w.y1), (w.x2, w.y2)))
        self.walls = tuple(walls)
        s = arena.size
        segments += [((0.0, 0.0), (s, 0.0)), ((s, 0.0), (s, s)),
                     ((s, s), (0.0, s)), ((0.0, s), (0.0, 0.0))]
        self.segments = tuple(segments)
        # What each controller reads every tick, bound once as a plain tuple
        # that it unpacks: faster than reading the NamedTuples' fields.  The
        # turns are the most an agent turns in one tick.
        dt = self.dt
        self.scripted = (
            profile.fov_deg, profile.turn_rate_deg_s * dt,
            physics.base_speed * profile.speed_fraction, profile.closes_distance,
            profile.strafes, profile.dodges, profile.combat_jump_prob_s,
            behavior.fire_align_tolerance_deg, behavior.scripted_stop_range,
        )
        self.rl = (
            physics.rl_fov_deg, physics.rl_turn_rate_deg_s * dt, physics.base_speed,
            physics.decision_every, behavior.jump_prob_per_s, behavior.engage_range,
        )
        self.waypoints = tuple(
            [(p.x, p.y) for p in arena.pickups] + list(arena.spawn_points)
        )

        self.agents = [AgentState(i) for i in range(OPPONENTS + 1)]
        # Each agent's lock-on command, shared by every opponent firing at it.
        self.lock_on = tuple(FireCommand(ASSAULT_RIFLE, None, a.id) for a in self.agents)
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
        # life_start_tick, its last finished life until play hands it on,
        # its game and its run of kills since it last died.
        self.life = LifeStats()
        self.life_start_tick = 0
        self.completed_life: LifeStats | None = None
        self.game = GameStats(shoot_s={name: 0.0 for name in armory})
        self.kill_streak = 0

        for agent, point in zip(self.agents, self.arena.spawn_points):
            self._spawn(agent, point)

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

        For a vertical wall (ex == 0.0, |ey| >= 1) the first sign test reads
        x1 != wx1 and x2 != wx1 and (x1 < wx1) == (x2 < wx1).  Proof: the
        wall's ends and the endpoints lie in [0, C], C the arena's size
        (Arena), so ex * (y1 - wy1) is ±0.0.  If x1 == wx1, ey * (x1 - wx1)
        is ±0.0 too, so d1 == 0.  Otherwise |x1 - wx1| >= 2**-1074 and 1 <=
        |ey| <= C, so ey * (x1 - wx1) is finite and non-zero, d1 is exactly
        its negation, and d1 > 0 exactly when x1 is on the side of wx1 given
        by the sign of ey.  Likewise d2.

        Before that x test, the band test skips a vertical wall when y1 and y2
        both lie below its grown y-range's lo or both above its hi
        (World.__init__: the wall's ends less and plus margin = 1e-9 * C).
        Where the x test would skip the wall too, that changes nothing.
        Otherwise wx1 lies between x1 and x2.  Proof, for endpoints with
        coordinates in [1, C], as agents' are, and a wall above the segment
        (the other case is its mirror).  If x1 == x2, both ends lie on the
        wall's line, d1 to d4 are 0, and segments_intersect reports only an
        end inside the other segment's bounding box: there is none, as the
        y-ranges are disjoint.  Otherwise |dx| >= 2**-52.  For either end wy
        of the wall, d3 or d4 rounds e = dx * (wy - y1) - dy * (wx1 - x1).
        Exactly, e = dx * (wy - yc): the line from (x1, y1) along the rounded
        (dx, dy) meets x = wx1 at height yc, at most 3u*C above max(y1, y2)
        (u = 2**-53), and lo is at most 2u*C above the wall's end less
        margin, so wy - yc > margin - 5u*C.  The rounding of e's two
        differences and two products, each under 2C*|dx| in size, is under
        7u*C*|dx|, and |dx| * margin lies far above the subnormals.  So d3
        and d4 are non-zero with the sign of dx, as margin > 12u*C, and the
        general path would continue at its (d3, d4) test.
        """
        for wx1, wy1, wx2, wy2, ex, ey, vertical, lo, hi in self.walls:
            if vertical and (
                y1 < lo and y2 < lo or y1 > hi and y2 > hi
                or x1 != wx1 and x2 != wx1 and (x1 < wx1) == (x2 < wx1)
            ):
                continue  # both ends past one end of the wall, or on one side of it
            d1 = ex * (y1 - wy1) - ey * (x1 - wx1)
            d2 = ex * (y2 - wy1) - ey * (x2 - wx1)
            if (d1 > 0) == (d2 > 0) and d1 != 0 and d2 != 0:
                continue  # both ends strictly on one side of the wall's line
            dx, dy = x2 - x1, y2 - y1
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
            if other is agent or not other.alive:
                continue
            ox, oy = other.x, other.y
            d = math.hypot(ox - ax, oy - ay)
            if d >= best_d:
                continue
            if fov_deg < 180.0:
                # geo.bearing_deg((ax, ay), (ox, oy)), then
                # abs(normalize_angle(bearing - yaw)), fast paths inlined.
                bearing = math.degrees(math.atan2(oy - ay, ox - ax))
                a = bearing + 180.0
                bearing = a - 180.0 if 0.0 <= a < 360.0 else geo.normalize_angle(bearing)
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

    # -- tick --------------------------------------------------------------

    def play(self, ticks: int, events_file=None):
        """Tick `ticks` times, writing each tick's events to `events_file`
        when one is given, and yield each of the bot's lives as it ends: each
        death's, taken from `completed_life`, then the life cut off at the
        whistle if the bot is alive then."""
        for _ in range(ticks):
            events = self.tick()
            if events and events_file is not None:
                events_file.write("".join([format_event(e) + "\n" for e in events]))
            if self.completed_life is not None:
                life, self.completed_life = self.completed_life, None
                yield life
        if self.agents[RL_AGENT_ID].alive:
            yield self.finalize_truncated_life()

    def tick(self) -> list[Event]:
        dt = self.dt
        self.tick_count += 1
        t = self.tick_count

        # This tick's events, in the order damage, deaths, spawns, pickups.
        events: list[Event] = []
        spawn_events: list[SpawnEvent] = []

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
        if self.projectiles:
            self._advance_projectiles(dt, damage_records)

        # Apply damage.
        for attacker, victim_id, amount, weapon, self_inflicted in damage_records:
            victim = self.agents[victim_id]
            if not victim.alive:
                continue
            amount = min(amount, victim.health)
            victim.health -= amount
            events.append(
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
                victim.death = (
                    SuicideEvent(t, victim_id, "self-splash") if self_inflicted
                    else KillEvent(t, attacker, victim_id)
                )

        # Deaths recorded this tick, in agent order, the bot first: its own
        # death ends its kill streak before its kills of this tick count.
        for agent in self.agents:
            death = agent.death
            if death is None:
                continue
            agent.death = None
            events.append(death)
            if isinstance(death, KillEvent) and death.killer == RL_AGENT_ID:
                game = self.game
                game.kills += 1
                self.kill_streak += 1
                game.max_kill_streak = max(game.max_kill_streak, self.kill_streak)
            agent.respawn_timer = self.physics.respawn_delay_s
            agent.fire_command = None
            if agent.id == RL_AGENT_ID:
                self._finalize_life(death)

        events += spawn_events
        self._pickups(near, dt, events)
        return events

    def _life_stats(self, reward: float, cause: str) -> LifeStats:
        return LifeStats(
            self.life.hits, self.life.misses, reward,
            (self.tick_count - self.life_start_tick) * self.dt, cause,
        )

    def _finalize_life(self, death: KillEvent | SuicideEvent) -> None:
        game = self.game
        if isinstance(death, SuicideEvent):
            cause = f"suicide-{death.cause}"
            game.suicides += 1
        else:
            cause = "killed"
            game.deaths_by_others += 1
        self.kill_streak = 0
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
                        agent.death = SuicideEvent(self.tick_count, agent.id, "pit")
                        agent.alive = False
                        break
        return near

    def _pickups(self, near: list, dt: float, events: list[Event]) -> None:
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
        self, agent: AgentState, pickup: PickupState, events: list[Event]
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
        fov, turn, speed, decision_every, jump_prob, engage_range = self.rl
        decision_tick = self.tick_count % decision_every == 0
        seen = self.nearest_visible(agent, fov)
        target, dist, bearing = seen or (None, 0.0, 0.0)

        if decision_tick and target is not None:
            agent.fire_command = command = self.controller.decide(agent, target, dist)
            agent.current_weapon = command.weapon
            jump = jump_prob * dt * decision_every
            if self.rng.random() < jump and agent.jump_t < 0.0:
                agent.jump_t = 0.0

        # Movement: close to fighting range, strafe there, patrol otherwise.
        if target is not None:
            # unit_towards(agent, target, dist), inlined.
            if dist == 0.0:
                ux, uy = 1.0, 0.0
            else:
                ux, uy = (target.x - agent.x) / dist, (target.y - agent.y) / dist
            self._approach(agent, ux, uy, dist, dt, speed, engage_range)
            agent.yaw = geo.turn_towards(agent.yaw, bearing, turn)
        else:
            agent.fire_command = None
            self._patrol(agent, speed)

    def _control_scripted(self, agent: AgentState, dt: float) -> None:
        (fov, turn, speed, closes_distance, strafes, dodges, combat_jump_prob_s,
         fire_align_tolerance_deg, stop_range) = self.scripted
        seen = self.nearest_visible(agent, fov)
        if seen is None:
            agent.fire_command = None
            if agent.alert_timer > 0.0:
                # Taking fire from outside the view cone: turn and close in.
                agent.alert_timer -= dt
                bearing = geo.bearing_deg((agent.x, agent.y), agent.alert_pos)
                agent.yaw = geo.turn_towards(agent.yaw, bearing, turn)
                ux, uy = geo.normalize2(
                    (agent.alert_pos[0] - agent.x, agent.alert_pos[1] - agent.y)
                )
                agent.vx = ux * speed
                agent.vy = uy * speed
            else:
                self._patrol(agent, speed)
            return
        agent.alert_timer = 0.0

        target, dist, bearing = seen
        agent.yaw = geo.turn_towards(agent.yaw, bearing, turn)

        # Movement while engaged.
        if closes_distance:
            ux, uy = unit_towards(agent, target, dist)
            self._approach(agent, ux, uy, dist, dt, speed, stop_range)
        elif strafes:
            ux, uy = unit_towards(agent, target, dist)
            self._combat_strafe(agent, ux, uy, dt, speed)
        else:
            agent.vx = agent.vy = 0.0  # static during combat

        if dodges and self.projectiles:
            self._dodge_projectiles(agent)
        if combat_jump_prob_s > 0.0 and agent.jump_t < 0.0:
            if self.rng.random() < combat_jump_prob_s * dt:
                agent.jump_t = 0.0

        # abs(normalize_angle(bearing - yaw)), with its fast path inlined.
        a = bearing - agent.yaw + 180.0
        off = a - 180.0 if 0.0 <= a < 360.0 else geo.normalize_angle(bearing - agent.yaw)
        if abs(off) <= fire_align_tolerance_deg:
            agent.fire_command = self.lock_on[target.id]
        else:
            agent.fire_command = None

    def _patrol(self, agent: AgentState, speed: float) -> None:
        wp = agent.waypoint
        if math.hypot(wp[0] - agent.x, wp[1] - agent.y) < self.behavior.waypoint_radius:
            agent.waypoint = wp = self.rng.choice(self.waypoints)
        dx, dy = wp[0] - agent.x, wp[1] - agent.y
        ux, uy = self._veer_around_pits(agent, *geo.normalize2((dx, dy)))
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
        self, agent: AgentState, ux: float, uy: float, dt: float, speed: float
    ) -> None:
        """Strafe across (ux, uy), the unit vector towards the target."""
        side = self._strafe_dir(agent, dt)
        agent.vx = -uy * side * speed
        agent.vy = ux * side * speed

    def _approach(
        self,
        agent: AgentState,
        ux: float,
        uy: float,
        dist: float,
        dt: float,
        speed: float,
        stop_range: float,
    ) -> None:
        """Close in along (ux, uy), the unit vector towards a target `dist`
        away, down to `stop_range`, then strafe."""
        if dist > stop_range:
            # Advance with a diagonal strafe component.
            side = self._strafe_dir(agent, dt)
            sx, sy = -uy * side, ux * side
            # geo.normalize2((ux + 0.6 * sx, uy + 0.6 * sy)), inlined.
            mx, my = ux + 0.6 * sx, uy + 0.6 * sy
            n = math.hypot(mx, my)
            mx, my = (1.0, 0.0) if n == 0.0 else (mx / n, my / n)
            mx, my = self._veer_around_pits(agent, mx, my)
            agent.vx = mx * speed
            agent.vy = my * speed
        else:
            self._combat_strafe(agent, ux, uy, dt, speed)

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
                agent.jump_t = 0.0
            break

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
        to `aim_point`, or None when the two coincide.  _hitscan inlines it:
        keep the two alike."""
        ox, oy, oz = agent.x, agent.y, agent.z + self.physics.eye_height
        dx = aim_point[0] - ox
        dy = aim_point[1] - oy
        dz = aim_point[2] - oz
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            return None
        return (ox, oy, oz), (dx / norm, dy / norm, dz / norm), norm

    def _lock_on_point(
        self, agent: AgentState, cmd: FireCommand
    ) -> tuple[float, float, float] | None:
        """Where a lock-on command (cmd.aim is None) aims, or None when its
        target is dead."""
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
        aim_point = cmd.aim
        if aim_point is None:
            aim_point = self._lock_on_point(agent, cmd)
            if aim_point is None:
                return
        if cmd.weapon != SHIELD_GUN:
            if agent.inventory.get(cmd.weapon, 0) <= 0:
                return
            agent.inventory[cmd.weapon] -= 1
        agent.cooldown = weapon.interval

        is_rl = agent.id == RL_AGENT_ID
        if is_rl:
            self.controller.on_shot()

        if weapon.melee_range > 0.0:
            hit = self._melee(agent, weapon, aim_point, damage_records)
        elif weapon.speed == math.inf:  # hitscan
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
            (agent.id, best.id, weapon.damage, weapon.name, False)
        )
        return True

    def _hitscan(self, agent, weapon: WeaponSpec, aim_point, damage_records) -> bool:
        """Fire one hitscan pellet: the first agent on the ray is hit unless a
        wall comes first.

        The distance test skips an agent whose centre lies too far from the
        shot's 2-D line for geo.ray_cylinder_t to return anything but None:
        cross * cross > reach_sq, where cross = dx * (cy - oy) - dy * (cx -
        ox) and reach_sq = R**2 + margin * C (World.__init__: R is
        CYLINDER_RADIUS, C the arena's size, margin = 1e-9 * C and C > 2R).
        d = (dx, dy) is the level part of a unit vector, perhaps turned by
        the spread, so |d|**2 <= 1 + 8u (u = 2**-53).  Proof, with f =
        (cx - ox, cy - oy) rounded (|f| < 1.5C, agents being inside the
        arena) and D the distance of o + f from the line, D = |K| / |d| for
        K = dx * f[1] - dy * f[0] exactly:
        - A skip means |cross| > R * (1 - u), so |d| > R / (2C): a nearly
          vertical shot, whose tiny d keeps cross tiny, skips nothing, and d
          lies far above the subnormals.  cross is K to within 3u*C*|d|, so
          D > sqrt(reach_sq) * (1 - 6u) - 3u*C.
        - ray_cylinder_t returns a t only if (a) its origin test finds |f| <=
          R to within 2u, so D <= R * (1 + 2u); or (b) its side test finds
          the discriminant >= 0, whose quarter is exactly |d|**2 * (R**2 -
          D**2) and rounds by under u * |d|**2 * (12 * |f|**2 + 5 * R**2), so
          D**2 <= R**2 * (1 + 5u) + 27u*C**2; or (c) an end cap finds a
          rounded point (x, y) within R * (1 + 3u) of the centre, where (x,
          y) lies within 6u*C of the line's point (ox + t * dx, oy + t * dy)
          and o + f within 2u*C of the centre, so D <= R * (1 + 3u) + 8u*C.
        Since margin * C = 1e-9 * C**2 and C > 2R, the skip's bound exceeds
        each of (a), (b) and (c).  So the victim and the damage record are
        those of the same loop without the test.
        """
        # self._ray(agent, aim_point), inlined.
        ox, oy, oz = agent.x, agent.y, agent.z + self.physics.eye_height
        dx = aim_point[0] - ox
        dy = aim_point[1] - oy
        dz = aim_point[2] - oz
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm == 0.0:
            return False
        dx, dy, dz = dx / norm, dy / norm, dz / norm

        # Opponents miss by up to their profile's aim error, drawn even at 0;
        # the bot's shots scatter by the weapon's spread.
        is_rl = agent.id == RL_AGENT_ID
        spread = weapon.spread_deg if is_rl else self.profile.max_aim_error_deg
        if spread > 0.0 or not is_rl:
            # self.rng.uniform(-spread, spread), inlined as Random.uniform
            # computes it: a + (b - a) * random().
            spread_yaw = math.radians(-spread + (spread - -spread) * self.rng.random())
            c, s = math.cos(spread_yaw), math.sin(spread_yaw)
            dx, dy = dx * c - dy * s, dx * s + dy * c

        origin, direction = (ox, oy, oz), (dx, dy, dz)
        limit = self.reach_sq
        best_t = math.inf
        victim = None
        for other in self.agents:
            if other.id == agent.id or not other.alive:
                continue
            cross = dx * (other.y - oy) - dy * (other.x - ox)
            if cross * cross > limit:
                continue  # the distance test: ray_cylinder_t would return None
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
            t_wall = geo.ray_segment_t((ox, oy), (dx, dy), a, b)
            if t_wall is not None and t_wall < best_t:
                return False
        damage_records.append(
            (agent.id, victim.id, weapon.damage, weapon.name, False)
        )
        return True

    def _launch_projectile(self, agent, weapon: WeaponSpec, aim_point) -> None:
        ray = self._ray(agent, aim_point)
        if ray is None:
            return
        origin, (ux, uy, uz), norm = ray
        speed = weapon.speed
        if agent.id == RL_AGENT_ID:
            self.life.misses += 1
        self.projectiles.append(Projectile(
            agent.id, weapon.name, origin, (ux * speed, uy * speed, uz * speed), norm
        ))

    def _advance_projectiles(self, dt: float, damage_records: list) -> None:
        survivors: list[Projectile] = []
        for proj in self.projectiles:
            weapon = self.armory[proj.weapon]
            # Direct hit on an agent (shooter excluded: self harm is splash only).
            direction = (proj.vx * dt, proj.vy * dt, proj.vz * dt)
            best_t = math.inf
            victim = None
            for other in self.agents:
                if other.id == proj.shooter or not other.alive:
                    continue
                t = geo.ray_cylinder_t(
                    (proj.x, proj.y, proj.z), direction, (other.x, other.y),
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

            # The rocket stops at the first agent or wall on this step's path,
            # the agent winning a tie; with neither, at the step's end once its
            # travel runs out or it reaches the floor.
            t = min(best_t, wall_t)
            if t == math.inf:
                t = 1.0
                proj.remaining -= weapon.speed * dt
                if not (proj.remaining <= 0.0 or proj.z + direction[2] < 0.0):
                    proj.x += direction[0]
                    proj.y += direction[1]
                    proj.z += direction[2]
                    survivors.append(proj)
                    continue
            point = (
                proj.x + direction[0] * t,
                proj.y + direction[1] * t,
                proj.z + direction[2] * t,
            )
            direct = victim if best_t <= wall_t else None
            self._detonate(proj, weapon, point, direct, damage_records)
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
                (proj.shooter, direct_victim.id, weapon.damage,
                 weapon.name, False)
            )
            damaged_opponent = True
        if weapon.splash > 0.0:
            for other in self.agents:
                if not other.alive or other is direct_victim:
                    continue
                if other.id == proj.shooter and not weapon.self_damage:
                    continue
                dx = other.x - point[0]
                dy = other.y - point[1]
                dz = (other.z + MID_Z) - point[2]
                d = math.sqrt(dx * dx + dy * dy + dz * dz)
                if d >= weapon.splash:
                    continue
                # A rocket can detonate on the outer wall, so splash is
                # tested against every blocking segment, boundary included.
                splash_from = (point[0], point[1])
                if any(
                    geo.segments_intersect(splash_from, (other.x, other.y), a, b)
                    for a, b in self.segments
                ):
                    continue
                amount = weapon.damage * (1.0 - d / weapon.splash)
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
