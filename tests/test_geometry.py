import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarsa_arena import geometry as geo


class TestSegments:
    def test_plain_crossing(self):
        assert geo.segments_intersect((0, 0), (10, 10), (0, 10), (10, 0))

    def test_parallel_miss(self):
        assert not geo.segments_intersect((0, 0), (10, 0), (0, 1), (10, 1))

    def test_touching_endpoint(self):
        assert geo.segments_intersect((0, 0), (5, 5), (5, 5), (9, 2))

    def test_disjoint(self):
        assert not geo.segments_intersect((0, 0), (1, 0), (2, 2), (3, 3))

    def test_collinear_overlap(self):
        assert geo.segments_intersect((0, 0), (6, 0), (4, 0), (9, 0))
        assert geo.segments_intersect((2, 2), (8, 8), (3, 3), (5, 5))

    def test_collinear_disjoint(self):
        assert not geo.segments_intersect((0, 0), (3, 0), (4, 0), (9, 0))
        assert not geo.segments_intersect((0, 5), (0, 9), (0, 1), (0, 4))

    def test_endpoint_touching_interior(self):
        assert geo.segments_intersect((5, 0), (5, 5), (0, 0), (10, 0))
        assert not geo.segments_intersect((5, 1), (5, 5), (0, 0), (10, 0))


class TestRaySegment:
    def test_hit_distance(self):
        t = geo.ray_segment_t((0, 0), (1, 0), (5, -2), (5, 2))
        assert t == pytest.approx(5.0)

    def test_behind_origin(self):
        assert geo.ray_segment_t((0, 0), (1, 0), (-5, -2), (-5, 2)) is None

    def test_parallel(self):
        assert geo.ray_segment_t((0, 0), (1, 0), (2, 1), (9, 1)) is None


def marched_cylinder_hit(origin, direction, center, base_z, radius, height):
    """Brute-force oracle: march the ray in tiny steps and report the first
    parameter t at which the point lies inside the cylinder, else None."""
    steps = 40_000
    t_max = 4.0
    for i in range(steps + 1):
        t = t_max * i / steps
        x = origin[0] + t * direction[0]
        y = origin[1] + t * direction[1]
        z = origin[2] + t * direction[2]
        inside = (
            (x - center[0]) ** 2 + (y - center[1]) ** 2 <= radius * radius
            and base_z <= z <= base_z + height
        )
        if inside:
            return t
    return None


class TestRayCylinder:
    def test_straight_on_hit(self):
        t = geo.ray_cylinder_t((0, 0, 20), (1, 0, 0), (100, 0), 0, 17, 39)
        assert t == pytest.approx(83.0)

    def test_miss_above(self):
        assert geo.ray_cylinder_t((0, 0, 80), (1, 0, 0), (100, 0), 0, 17, 39) is None

    def test_cap_entry_from_above(self):
        t = geo.ray_cylinder_t((100, 0, 100), (0, 0, -1), (100, 0), 0, 17, 39)
        assert t == pytest.approx(61.0)

    def test_origin_inside(self):
        t = geo.ray_cylinder_t((100, 0, 10), (1, 0, 0), (100, 0), 0, 17, 39)
        assert t == pytest.approx(0.0, abs=1e-9)

    def test_nearly_level_ray_misses_the_far_cap(self):
        # The ray meets the top cap's plane 1.2e167 along y, where float `**`
        # raises OverflowError on the offset's square.
        origin, direction = (17.0, 17.0, 30.0), (0.0, 1.0, 7.3e-167)
        assert geo.ray_cylinder_t(origin, direction, (0.0, 0.0), 0.0, 17.0, 39.0) is None

    def test_matches_marching_oracle_on_random_scenes(self):
        rng = random.Random(2024)
        agree = 0
        for _ in range(300):
            origin = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 60))
            target = (rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(-20, 80))
            direction = tuple(b - a for a, b in zip(origin, target))
            if math.sqrt(sum(d * d for d in direction)) < 1e-6:
                continue
            center = (rng.uniform(-60, 60), rng.uniform(-60, 60))
            t = geo.ray_cylinder_t(origin, direction, center, 0.0, 17.0, 39.0)
            t_oracle = marched_cylinder_hit(origin, direction, center, 0.0, 17.0, 39.0)
            if t_oracle is None:
                # Marching can only prove hits, not misses, near tangency; a
                # reported hit must then be grazing within one march step.
                if t is not None:
                    assert _grazes(origin, direction, center, t)
            else:
                assert t is not None
                assert t == pytest.approx(t_oracle, abs=2e-4)
                agree += 1
        assert agree >= 40  # the scene generator produced plenty of real hits


def _grazes(origin, direction, center, t) -> bool:
    x = origin[0] + t * direction[0]
    y = origin[1] + t * direction[1]
    d = math.hypot(x - center[0], y - center[1])
    return abs(d - 17.0) < 0.5


class TestAngles:
    def test_bearing_east_is_zero(self):
        assert geo.bearing_deg((0, 0), (5, 0)) == 0.0

    def test_bearing_north(self):
        assert geo.bearing_deg((0, 0), (0, 5)) == pytest.approx(90.0)

    @pytest.mark.parametrize("angle,wrapped", [(0, 0), (180, -180), (-180, -180),
                                               (190, -170), (-190, 170), (540, -180)])
    def test_normalize(self, angle, wrapped):
        assert geo.normalize_angle(angle) == pytest.approx(wrapped)

    def test_turn_clamps_step(self):
        assert geo.turn_towards(0.0, 90.0, 10.0) == pytest.approx(10.0)

    def test_turn_reaches_target(self):
        assert geo.turn_towards(85.0, 90.0, 10.0) == pytest.approx(90.0)

    def test_turn_takes_short_way_around(self):
        assert geo.turn_towards(-170.0, 170.0, 5.0) == pytest.approx(-175.0)


# ---------------------------------------------------------------------------
# normalize_angle's fast path against the plain fmod form


def normalize_angle_fmod(angle):
    """normalize_angle without its fast path: the reference it must equal."""
    angle = math.fmod(angle + 180.0, 360.0)
    if angle < 0:
        angle += 360.0
    return angle - 180.0


def turn_towards_three_wraps(yaw, target_yaw, max_step):
    """turn_towards as three calls of normalize_angle: the reference its
    inlined wraps must equal."""
    diff = geo.normalize_angle(target_yaw - yaw)
    if abs(diff) <= max_step:
        return geo.normalize_angle(target_yaw)
    return geo.normalize_angle(yaw + math.copysign(max_step, diff))


def outcome(fn, *args):
    """The float `fn` returns, bit for bit (NaN as one value), or the
    exception type it raises (math.fmod raises ValueError for infinities)."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


EDGE_ANGLES = [
    180.0, -180.0, 0.0, -0.0,
    math.nextafter(180.0, 0.0), math.nextafter(180.0, math.inf),
    math.nextafter(-180.0, -math.inf), math.nextafter(-180.0, 0.0),
    math.nextafter(540.0, 0.0), 540.0, -540.0, 359.99999999999994,
    1e16, -1e16, 1e300, -1e300, 5e-324, -5e-324,
    math.inf, -math.inf, math.nan,
]

angles = st.one_of(
    st.sampled_from(EDGE_ANGLES),
    st.floats(-720.0, 720.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestAngleFastPaths:
    @settings(max_examples=2000, deadline=None)
    @given(angle=angles)
    def test_normalize_angle_is_bitwise_the_fmod_form(self, angle):
        assert outcome(geo.normalize_angle, angle) == outcome(normalize_angle_fmod, angle)

    @pytest.mark.parametrize("angle", EDGE_ANGLES)
    def test_edge_angles(self, angle):
        assert outcome(geo.normalize_angle, angle) == outcome(normalize_angle_fmod, angle)

    @settings(max_examples=1000, deadline=None)
    @given(
        p=st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
        q=st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
    )
    def test_bearing_is_bitwise_the_fmod_form(self, p, q):
        angle = math.degrees(math.atan2(q[1] - p[1], q[0] - p[0]))
        assert outcome(geo.bearing_deg, p, q) == outcome(normalize_angle_fmod, angle)

    @settings(max_examples=2000, deadline=None)
    @given(yaw=angles, target=angles, step=st.one_of(
        st.sampled_from([0.0, 3.5, 180.0, 360.0, math.inf, math.nan]), st.floats(0.0, 400.0),
    ))
    def test_turn_towards_is_bitwise_the_three_wrap_form(self, yaw, target, step):
        assert outcome(geo.turn_towards, yaw, target, step) == outcome(
            turn_towards_three_wraps, yaw, target, step
        )

    def test_turn_towards_at_the_edges(self):
        # Every edge angle as yaw and as target, with a step that turns and
        # one that reaches: +-180, infinities and nan included.
        for yaw, target, step in itertools.product(
            EDGE_ANGLES, EDGE_ANGLES, [3.5, 360.0, math.inf, math.nan]
        ):
            assert outcome(geo.turn_towards, yaw, target, step) == outcome(
                turn_towards_three_wraps, yaw, target, step
            ), (yaw, target, step)

    @pytest.mark.parametrize("q", [(-5.0, 0.0), (-5.0, -0.0), (0.0, -5.0), (5.0, 0.0)])
    def test_bearing_on_the_wrap_line(self, q):
        # atan2 gives +pi or -pi on the negative x axis, depending on the
        # sign of zero: the +180 degree case takes the fmod path.
        angle = math.degrees(math.atan2(q[1], q[0]))
        assert outcome(geo.bearing_deg, (0.0, 0.0), q) == outcome(
            normalize_angle_fmod, angle
        )


# ---------------------------------------------------------------------------
# ray_cylinder_t's running minimum against the list form


def ray_cylinder_t_list(origin, direction, center, base_z, radius, height):
    """ray_cylinder_t as it was, collecting every entry in a list and
    returning min() of it: the reference the running minimum must equal."""
    ox, oy, oz = origin
    dx, dy, dz = direction
    cx, cy = center
    top_z = base_z + height
    hits = []
    fx, fy = ox - cx, oy - cy
    if fx * fx + fy * fy <= radius * radius and base_z <= oz <= top_z:
        return 0.0
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
                    if base_z <= z <= top_z:
                        hits.append(t)
    if dz != 0.0:
        for plane_z in (base_z, top_z):
            t = (plane_z - oz) / dz
            if t >= 0.0:
                x = ox + t * dx
                y = oy + t * dy
                try:
                    if (x - cx) ** 2 + (y - cy) ** 2 <= radius * radius:
                        hits.append(t)
                except OverflowError:  # a square past the float range: a miss
                    pass
    elif dz == 0.0 and base_z <= oz <= top_z and a == 0.0:
        if fx * fx + fy * fy <= radius * radius:
            hits.append(0.0)
    if not hits:
        return None
    return min(hits)


def entry(fn, *args):
    """None, or the float `fn` returns bit for bit (the sign of zero included)."""
    value = fn(*args)
    return None if value is None else struct.pack("<d", value)


# Small integers put origins on the cylinder's surface, its caps and its
# axis, and give tangent and zero directions; the signed zeros and extreme
# values reach the branches that only exact arithmetic meets.
small = st.one_of(
    st.sampled_from([0.0, -0.0, 17.0, -17.0, 39.0, 5e-324]),
    st.integers(-60, 60).map(float),
    st.floats(-60.0, 60.0),
)
extreme = st.one_of(
    small, st.sampled_from([1e300, -1e300, math.inf, -math.inf, math.nan]),
)
near_axis = st.one_of(st.sampled_from([0.0, -0.0, 17.0, -17.0]), st.floats(-20.0, 20.0))
in_slab = st.one_of(st.sampled_from([0.0, -0.0, 39.0]), st.floats(-5.0, 45.0))


class TestRayCylinderRunningMinimum:
    @settings(max_examples=1500, deadline=None)
    @given(
        origin=st.tuples(small, small, small),
        offset=st.tuples(near_axis, near_axis, in_slab),
        towards=st.booleans(),
        center=st.tuples(small, small),
        base_z=small,
        radius=st.sampled_from([17.0, 0.0, 1.5]),
        height=st.sampled_from([39.0, 0.0]),
    )
    def test_equals_the_list_form(self, origin, offset, towards, center, base_z, radius, height):
        # Half the rays aim from the origin at a point near the cylinder,
        # so that many of them enter it; the rest go along the offset.
        aim = (center[0] + offset[0], center[1] + offset[1], base_z + offset[2])
        direction = tuple(b - a for a, b in zip(origin, aim)) if towards else offset
        args = (origin, direction, center, base_z, radius, height)
        assert entry(geo.ray_cylinder_t, *args) == entry(ray_cylinder_t_list, *args)

    @settings(max_examples=300, deadline=None)
    @given(
        origin=st.tuples(extreme, extreme, extreme),
        direction=st.tuples(extreme, extreme, extreme),
        center=st.tuples(extreme, extreme),
        base_z=extreme,
    )
    def test_equals_the_list_form_at_extremes(self, origin, direction, center, base_z):
        args = (origin, direction, center, base_z, 17.0, 39.0)
        assert entry(geo.ray_cylinder_t, *args) == entry(ray_cylinder_t_list, *args)

    @pytest.mark.parametrize("origin,direction,base_z", [
        ((100.0, 0.0, 10.0), (0.0, 0.0, 0.0), 0.0),  # zero ray inside: 0.0 early
        ((100.0, 0.0, 50.0), (0.0, 0.0, 0.0), 0.0),  # zero ray above: a miss
        ((100.0, 0.0, 50.0), (0.0, 0.0, -1.0), 0.0),  # vertical ray onto the top cap
        ((100.0, 0.0, -5.0), (0.0, 0.0, 1.0), 0.0),  # vertical ray onto the bottom cap
        ((100.0, 0.0, 0.0), (0.0, 0.0, -1.0), -0.0),  # -0.0 - 0.0 on the bottom cap
        ((117.0, 0.0, 50.0), (0.0, 1.0, 0.0), 0.0),  # tangent to the side, above it
        ((117.0, 0.0, 50.0), (0.0, 1.0, -1.0), 0.0),  # along the side onto the top rim
    ])
    def test_degenerate_and_signed_zero_rays(self, origin, direction, base_z):
        args = (origin, direction, (100.0, 0.0), base_z, 17.0, 39.0)
        assert entry(geo.ray_cylinder_t, *args) == entry(ray_cylinder_t_list, *args)
