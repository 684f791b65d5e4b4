"""Planar and ray-cylinder geometry used by the arena simulator."""

from __future__ import annotations

import math

Vec2 = tuple[float, float]
Vec3 = tuple[float, float, float]


def normalize2(v: Vec2) -> Vec2:
    n = math.hypot(v[0], v[1])
    if n == 0.0:
        return (1.0, 0.0)
    return (v[0] / n, v[1] / n)


def _orient(a: Vec2, b: Vec2, c: Vec2) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_seg(a: Vec2, b: Vec2, c: Vec2) -> bool:
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def segments_intersect(
    p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2
) -> bool:
    """True if the closed segments p1-p2 and q1-q2 intersect."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and (
        (d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0
    ):
        # Conservative for collinear touching cases; fine for wall checks.
        if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
            return True
        if d1 == 0 and _on_seg(q1, q2, p1):
            return True
        if d2 == 0 and _on_seg(q1, q2, p2):
            return True
        if d3 == 0 and _on_seg(p1, p2, q1):
            return True
        if d4 == 0 and _on_seg(p1, p2, q2):
            return True
    return False


def ray_segment_t(origin: Vec2, direction: Vec2, a: Vec2, b: Vec2) -> float | None:
    """Smallest t >= 0 with origin + t*direction on segment a-b, else None."""
    rx, ry = direction
    sx, sy = b[0] - a[0], b[1] - a[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None
    qx, qy = a[0] - origin[0], a[1] - origin[1]
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if t >= 0.0 and 0.0 <= u <= 1.0:
        return t
    return None


def ray_cylinder_t(
    origin: Vec3,
    direction: Vec3,
    center: Vec2,
    base_z: float,
    radius: float,
    height: float,
) -> float | None:
    """Smallest t >= 0 where the ray enters the upright finite cylinder.

    Returns None when the ray misses.  `direction` need not be normalized;
    t is in units of the direction vector's length.
    """
    ox, oy, oz = origin
    dx, dy, dz = direction
    cx, cy = center
    top_z = base_z + height
    # The smallest entry so far; a later t replaces it only when smaller, so
    # of 0.0 and -0.0 the first found is returned, as min() of a list would.
    best: float | None = None

    # Origin already inside the solid cylinder: immediate hit.
    fx, fy = ox - cx, oy - cy
    if fx * fx + fy * fy <= radius * radius and base_z <= oz <= top_z:
        return 0.0

    # Side surface: 2D circle intersection, then z range check.
    a = dx * dx + dy * dy
    if a > 0.0:
        b = 2.0 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - radius * radius
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for t in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)):
                if t >= 0.0:
                    z = oz + t * dz
                    if base_z <= z <= top_z and (best is None or t < best):
                        best = t

    # End caps.
    if dz != 0.0:
        for plane_z in (base_z, top_z):
            t = (plane_z - oz) / dz
            if t >= 0.0:
                x = ox + t * dx
                y = oy + t * dy
                try:
                    inside = (x - cx) ** 2 + (y - cy) ** 2 <= radius * radius
                except OverflowError:
                    # Float `**` raises past about 1e154 (a nearly level
                    # ray), so the point is off any cap narrower than that.
                    continue
                if inside and (best is None or t < best):
                    best = t
    # A zero direction finds nothing: starting inside, it returned 0.0 above.
    return best


def bearing_deg(from_pos: Vec2, to_pos: Vec2) -> float:
    """World-frame heading (degrees in [-180, 180)) from one point to another."""
    # World.nearest_visible inlines this function: keep the two alike.
    angle = math.degrees(math.atan2(to_pos[1] - from_pos[1], to_pos[0] - from_pos[0]))
    a = angle + 180.0
    if 0.0 <= a < 360.0:
        return a - 180.0  # normalize_angle's fast path, inlined
    return normalize_angle(angle)


def normalize_angle(angle: float) -> float:
    """Wrap into [-180, 180)."""
    a = angle + 180.0
    if 0.0 <= a < 360.0:
        # fmod(a, 360.0) is exact and equals a on this range, so this is
        # bitwise the general path below.
        return a - 180.0
    a = math.fmod(a, 360.0)
    if a < 0:
        a += 360.0
    return a - 180.0


def turn_towards(yaw: float, target_yaw: float, max_step: float) -> float:
    """Rotate yaw toward target by at most max_step degrees.

    Each of the three wraps is normalize_angle with its fast path inlined.
    """
    diff = target_yaw - yaw
    a = diff + 180.0
    diff = a - 180.0 if 0.0 <= a < 360.0 else normalize_angle(diff)
    if abs(diff) <= max_step:
        a = target_yaw + 180.0
        return a - 180.0 if 0.0 <= a < 360.0 else normalize_angle(target_yaw)
    turned = yaw + math.copysign(max_step, diff)
    a = turned + 180.0
    return a - 180.0 if 0.0 <= a < 360.0 else normalize_angle(turned)
