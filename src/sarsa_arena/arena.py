"""Deterministic fixed-timestep arena: the World and the shooter controllers.

The world advances at a fixed physics tick.  The learning bot takes a
shooting decision every few ticks; scripted opponents run a skill-profile
behavior every tick.  All randomness flows through one seeded stream, so a
(config, seed) pair replays tick-for-tick.

`World` takes its control and movement from the `motion.Motion` mixin and
its shots, projectiles and splash from `firing.Firing`; its records are in
`records`.  Without a bytecode cache, each start compiles every module it
loads, and the largest compile sets the process's peak memory, so no module
is left large.  What stays here is what perfbench's tracer wraps by name:
`World.__init__`, `tick`, `nearest_visible` and `line_of_sight` in
`vars(World)`, and the controllers, whose decision body looks up `encode`,
`select_weapon`, `resolve_aim`, `select_action`, `sarsa_update` and
`terminal_update` in this module's globals.
"""

from __future__ import annotations

import math
import random

from . import geometry as geo
from .encoder import CombatObservation, discretize_distance, encode
from .firing import Firing
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
from .motion import Motion
from .records import (
    AgentState,
    Arena,
    BehaviorParams,
    DamageEvent,
    Event,
    FireCommand,
    GameStats,
    KillEvent,
    LifeStats,
    OPPONENTS,
    OpponentProfile,
    PICKUP_RADIUS,
    PhysicsParams,
    PickupEvent,
    PickupSpot,
    Projectile,
    RL_AGENT_ID,
    SpawnEvent,
    SuicideEvent,
    format_event,
    unit_towards,
)
from .weapons import (
    ACTION_LABELS,
    ASSAULT_RIFLE,
    CYLINDER_RADIUS,
    PriorityTables,
    SHIELD_GUN,
    WeaponSpec,
    resolve_aim,
    reward_for,
    select_weapon,
)


# ---------------------------------------------------------------------------
# The learning shooter's controller


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

    def decide(
        self, agent: AgentState, target: AgentState, dist: float, lag: float
    ) -> FireCommand:
        """One shooting decision against `target`, visible at distance `dist`
        (as nearest_visible measured it): pick the weapon, encode the state,
        choose an action, close the previous interval and open one for the
        chosen pair.  Returns the bot's command, which trails a lock-on by
        `lag` seconds and draws the weapon's spread only above 0."""
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
        spread = weapon.spread_deg
        return FireCommand(weapon_name, aim, target.id, lag, spread if spread > 0.0 else None)

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


class World(Motion, Firing):
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
            physics.aim_lag_s,
        )
        self.waypoints = tuple(
            [(p.x, p.y) for p in arena.pickups] + list(arena.spawn_points)
        )

        self.agents = [AgentState(i) for i in range(OPPONENTS + 1)]
        # Each agent's lock-on command, shared by every opponent firing at it,
        # with the level's handicaps: its aim error is drawn even at 0.
        self.lock_on = tuple(
            FireCommand(ASSAULT_RIFLE, None, a.id, profile.aim_lag_s, profile.max_aim_error_deg)
            for a in self.agents
        )
        self.projectiles: list[Projectile] = []
        # Values the per-tick loops read, computed once: pickups as
        # (spot, x, y, is_weapon), the arena's proximity index and pit
        # steering as (x, y, margin, look-ahead).  Each spot's timer, in
        # pickup_timers, is available at <= 0.
        self.pickups = tuple(
            (spot, spot.x, spot.y, spot.kind == "weapon") for spot in arena.pickups
        )
        self.pickup_timers = [0.0] * len(self.pickups)
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
        timers = self.pickup_timers
        if not spots:
            # Most ticks (four in five in frozen-eval) no living agent is
            # near a spot, and only the timers move.
            for i, timer in enumerate(timers):
                if not timer <= 0.0:
                    timers[i] = timer - dt
            return
        living = [agent for agent in self.agents if agent.alive]
        rl_living = living[:1] if self.agents[RL_AGENT_ID].alive else []
        for i, (spot, sx, sy, weapon_spot) in enumerate(self.pickups):
            timer = timers[i]
            if not timer <= 0.0:
                timers[i] = timer - dt
                continue
            if i not in spots:
                continue
            for agent in rl_living if weapon_spot else living:
                if (agent.x - sx) ** 2 + (agent.y - sy) ** 2 <= PICKUP_RADIUS ** 2:
                    self._collect(agent, spot, i, events)
                    break

    def _collect(
        self, agent: AgentState, spot: PickupSpot, i: int, events: list[Event]
    ) -> None:
        """Hand `spot`, the pickup at position `i`, to `agent`."""
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
        self.pickup_timers[i] = self.physics.pickup_respawn_s
        events.append(PickupEvent(self.tick_count, agent.id, item))
