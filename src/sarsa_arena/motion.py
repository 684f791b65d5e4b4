"""World's control and movement: the learning bot's and the scripted
opponents' steering, and the move step that applies it.
"""

from __future__ import annotations

import math

from . import geometry as geo
from .records import AgentState, RL_AGENT_ID, unit_towards
from .weapons import CYLINDER_RADIUS


class Motion:
    """World's controllers and movement, a mixin: it holds no state of its
    own and works on World's, calling World.nearest_visible and
    World.line_of_sight."""

    def _control_rl(self, agent: AgentState, dt: float) -> None:
        fov, turn, speed, decision_every, jump_prob, engage_range, lag = self.rl
        decision_tick = self.tick_count % decision_every == 0
        seen = self.nearest_visible(agent, fov)
        target, dist, bearing = seen or (None, 0.0, 0.0)

        if decision_tick and target is not None:
            agent.fire_command = command = self.controller.decide(agent, target, dist, lag)
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
