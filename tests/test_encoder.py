import itertools
import math
import random

import pytest

from sarsa_arena.arena import AgentState, observation
from sarsa_arena.encoder import (
    CombatObservation,
    DirectionClass,
    DistanceBand,
    FacingSector,
    N_STATES,
    RadialMotion,
    SpeedBand,
    TangentialMotion,
    classify_direction,
    decode,
    discretize_distance,
    discretize_rotation,
    discretize_speed,
    encode,
    encode_parts,
)


class TestDistance:
    @pytest.mark.parametrize(
        "d,band",
        [
            (0, DistanceBand.CLOSE),
            (300, DistanceBand.CLOSE),
            (510, DistanceBand.CLOSE),
            (510.001, DistanceBand.MEDIUM),
            (1700, DistanceBand.MEDIUM),
            (1700.001, DistanceBand.FAR),
            (2000, DistanceBand.FAR),
        ],
    )
    def test_bands(self, d, band):
        assert discretize_distance(d) == band

    def test_rejects_invalid(self):
        for bad in (-1, math.nan, math.inf):
            with pytest.raises(ValueError):
                discretize_distance(bad)

    def test_monotone(self):
        rng = random.Random(0)
        samples = sorted(rng.uniform(0, 4000) for _ in range(500))
        bands = [discretize_distance(d) for d in samples]
        assert bands == sorted(bands)


class TestSpeed:
    @pytest.mark.parametrize(
        "vx,vy,band",
        [
            (0, 0, SpeedBand.REGULAR),
            (800, 0, SpeedBand.REGULAR),
            (801, 0, SpeedBand.FAST),
            (600, 600, SpeedBand.FAST),
        ],
    )
    def test_bands(self, vx, vy, band):
        assert discretize_speed(vx, vy) == band

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            discretize_speed(math.nan, 0)

    def test_rotation_invariance(self):
        rng = random.Random(1)
        for _ in range(300):
            speed = rng.uniform(0, 1600)
            theta1, theta2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            b1 = discretize_speed(speed * math.cos(theta1), speed * math.sin(theta1))
            b2 = discretize_speed(speed * math.cos(theta2), speed * math.sin(theta2))
            assert b1 == b2


class TestDirection:
    def test_stationary(self):
        d = classify_direction((0.0, 0.0))
        assert d == DirectionClass(RadialMotion.NONE, TangentialMotion.NONE)

    def test_pure_approach(self):
        d = classify_direction((-300.0, 0.0))
        assert d == DirectionClass(RadialMotion.TOWARDS, TangentialMotion.NONE)

    def test_dead_zone_mixed(self):
        # Radial -40 is inside the 50 UU/s dead zone, tangential +200 is not.
        d = classify_direction((-40.0, 200.0))
        assert d == DirectionClass(RadialMotion.NONE, TangentialMotion.RIGHT)

    def test_rejects_non_finite(self):
        # encode never gets here with such a velocity (discretize_speed
        # rejects it first), so this check is tested on its own.
        for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="direction inputs must be finite"):
                classify_direction(bad)

    def test_negation_swaps_classes(self):
        rng = random.Random(2)
        swap_r = {
            RadialMotion.TOWARDS: RadialMotion.AWAY,
            RadialMotion.AWAY: RadialMotion.TOWARDS,
            RadialMotion.NONE: RadialMotion.NONE,
        }
        swap_t = {
            TangentialMotion.LEFT: TangentialMotion.RIGHT,
            TangentialMotion.RIGHT: TangentialMotion.LEFT,
            TangentialMotion.NONE: TangentialMotion.NONE,
        }
        for _ in range(300):
            v = (rng.uniform(-900, 900), rng.uniform(-900, 900))
            d = classify_direction(v)
            neg = classify_direction((-v[0], -v[1]))
            assert neg == DirectionClass(swap_r[d.radial], swap_t[d.tangential])

    def test_axis_relative(self):
        # Moving away from the bot is Away whichever world axis joins them:
        # the observation projects onto the engagement frame.
        bot, opponent = AgentState(0), AgentState(1)
        bot.x, bot.y = 1000.0, 1000.0
        opponent.x, opponent.y, opponent.vy = 1000.0, 1600.0, 300.0
        obs = observation(bot, opponent, 600.0, instant_hit=True)
        d = classify_direction(obs.rel_velocity)
        assert d == DirectionClass(RadialMotion.AWAY, TangentialMotion.NONE)


class TestRotation:
    @pytest.mark.parametrize(
        "angle,sector",
        [
            (0, FacingSector.FR1),
            (59.9, FacingSector.FR1),
            (60, FacingSector.FR2),
            (90, FacingSector.FR2),
            (120, FacingSector.BR),
            (179.9, FacingSector.BR),
            (-180, FacingSector.BL),
            (-150, FacingSector.BL),
            (-120, FacingSector.FL2),
            (-60, FacingSector.FL1),
            (-0.001, FacingSector.FL1),
        ],
    )
    def test_sectors(self, angle, sector):
        assert discretize_rotation(angle) == sector

    def test_rejects_out_of_range(self):
        for bad in (180, 181, -180.001, math.nan):
            with pytest.raises(ValueError):
                discretize_rotation(bad)

    def test_partition_no_gaps(self):
        counts = {sector: 0 for sector in FacingSector}
        n = 3600
        for i in range(n):
            angle = -180.0 + 360.0 * i / n
            counts[discretize_rotation(angle)] += 1
        assert all(c == n // 6 for c in counts.values())


class TestEncode:
    def test_minimal_word(self):
        index = encode_parts(
            DistanceBand.CLOSE,
            SpeedBand.REGULAR,
            False,
            DirectionClass(RadialMotion.TOWARDS, TangentialMotion.LEFT),
            FacingSector.FR1,
            False,
        )
        assert index == 0

    def test_maximal_word(self):
        index = encode_parts(
            DistanceBand.FAR,
            SpeedBand.FAST,
            True,
            DirectionClass(RadialMotion.AWAY, TangentialMotion.RIGHT),
            FacingSector.FL1,
            True,
        )
        assert index == N_STATES - 1 == 1295

    def test_known_index_701(self):
        index = encode_parts(
            DistanceBand.MEDIUM,
            SpeedBand.FAST,
            False,
            DirectionClass(RadialMotion.NONE, TangentialMotion.NONE),  # ordinal 4
            FacingSector.BR,
            True,
        )
        assert index == 701

    def test_bijection_over_full_product(self):
        seen = set()
        for dist, speed, jump, radial, tang, rot, inst in itertools.product(
            DistanceBand, SpeedBand, (False, True), RadialMotion, TangentialMotion,
            FacingSector, (False, True),
        ):
            direction = DirectionClass(radial, tang)
            index = encode_parts(dist, speed, jump, direction, rot, inst)
            assert 0 <= index < N_STATES
            seen.add(index)
            assert decode(index) == (dist, speed, jump, direction, rot, inst)
        assert len(seen) == N_STATES

    def test_encode_from_observation(self):
        obs = CombatObservation(
            distance=300.0,
            rel_velocity=(-300.0, 0.0),
            opponent_jumping=False,
            facing_angle=0.0,
            weapon_instant_hit=False,
        )
        # Close, Regular, no jump, (Towards, None) ordinal 1, FR1, not instant.
        assert encode(obs) == encode_parts(
            DistanceBand.CLOSE,
            SpeedBand.REGULAR,
            False,
            DirectionClass(RadialMotion.TOWARDS, TangentialMotion.NONE),
            FacingSector.FR1,
            False,
        )

    def test_observation_validation(self):
        # CombatObservation is a plain record: encode is where it is checked.
        with pytest.raises(ValueError):
            encode(CombatObservation(-1.0, (0, 0), False, 0.0, False))
        with pytest.raises(ValueError):
            encode(CombatObservation(10.0, (math.nan, 0), False, 0.0, False))
        with pytest.raises(ValueError):
            encode(CombatObservation(10.0, (0, 0), False, 180.0, False))


def reference_check(obs):
    """The checks CombatObservation once ran on construction, kept as the
    reference for the ones encode runs now."""
    if not math.isfinite(obs.distance) or obs.distance < 0:
        raise ValueError(f"distance {obs.distance} must be finite and >= 0")
    vx, vy = obs.rel_velocity
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError("velocity components must be finite")
    if not -180.0 <= obs.facing_angle < 180.0:
        raise ValueError(f"facing angle {obs.facing_angle} outside [-180, 180)")


GRID_DISTANCES = (-1.0, -5e-324, -0.0, 0.0, 510.0, 1700.0, 1e308, math.inf, -math.inf, math.nan)
GRID_VELOCITIES = (0.0, 49.9, -49.9, 1e308, -1e308, math.inf, -math.inf, math.nan)
GRID_FACINGS = (
    -180.0, math.nextafter(-180.0, -math.inf), -0.0, math.nextafter(180.0, 0.0), 180.0,
    math.inf, -math.inf, math.nan,
)


def test_encode_rejects_what_the_reference_rejects():
    outcomes = set()
    for distance, vx, vy, facing in itertools.product(
        GRID_DISTANCES, GRID_VELOCITIES, GRID_VELOCITIES, GRID_FACINGS,
    ):
        obs = CombatObservation(distance, (vx, vy), False, facing, True)
        try:
            reference_check(obs)
        except ValueError as exc:
            expected = str(exc)
        else:
            expected = None
        try:
            encode(obs)
        except ValueError as exc:
            got = str(exc)
        else:
            got = None
        assert got == expected, obs
        outcomes.add(expected and expected.split()[0])
    # Some of the grid passes, and each check is the first to reject some.
    assert outcomes == {None, "distance", "velocity", "facing"}
