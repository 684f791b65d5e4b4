"""World's firing: melee, hitscan, rocket launch and flight, and splash."""

from __future__ import annotations

import math

from . import geometry as geo
from .records import AgentState, FireCommand, Projectile, RL_AGENT_ID
from .weapons import CYLINDER_HEIGHT, CYLINDER_RADIUS, MID_Z, SHIELD_GUN, WeaponSpec


class Firing:
    """World's firing and projectiles, a mixin: it holds no state of its own
    and works on World's, calling World.line_of_sight."""

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

    def _lock_on_point(self, cmd: FireCommand) -> tuple[float, float, float] | None:
        """Where a lock-on command (cmd.aim is None) aims, or None when its
        target is dead."""
        target = self.agents[cmd.target_id]
        if not target.alive:
            return None
        # Tracking trails a moving target by the shooter's reaction lag.
        lag = cmd.lag
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
            aim_point = self._lock_on_point(cmd)
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
                hit |= self._hitscan(agent, weapon, aim_point, cmd.spread, damage_records)
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

    def _hitscan(self, agent, weapon: WeaponSpec, aim_point, spread, damage_records) -> bool:
        """Fire one hitscan pellet, turned by a uniform yaw of up to `spread`
        degrees (a FireCommand's; None draws nothing): the first agent on the
        ray is hit unless a wall comes first.

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

        if spread is not None:
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
