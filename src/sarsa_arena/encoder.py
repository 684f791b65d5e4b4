"""Discretization of continuous combat perception into 1296 states.

Six attributes are combined in a mixed-radix index:
distance (3) x speed (2) x jumping (2) x movement direction (9) x
facing sector (6) x instant-hit weapon (2) = 1296 states.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

N_STATES = 1296

CLOSE_MAX_UU = 510.0
MEDIUM_MAX_UU = 1700.0
FAST_MIN_UU_PER_S = 800.0

# Relative-velocity components smaller than this count as "not moving" on
# that axis; roughly 1.5 player widths per second of drift.
DIRECTION_DEAD_ZONE = 50.0


class DistanceBand(enum.IntEnum):
    CLOSE = 0
    MEDIUM = 1
    FAR = 2


class SpeedBand(enum.IntEnum):
    REGULAR = 0
    FAST = 1


class RadialMotion(enum.IntEnum):
    TOWARDS = 0
    NONE = 1
    AWAY = 2


class TangentialMotion(enum.IntEnum):
    LEFT = 0
    NONE = 1
    RIGHT = 2


class FacingSector(enum.IntEnum):
    """Opponent facing relative to the opponent->bot line, 60 degree wedges."""

    FR1 = 0  # [0, 60)
    FR2 = 1  # [60, 120)
    BR = 2   # [120, 180)
    BL = 3   # [-180, -120)
    FL2 = 4  # [-120, -60)
    FL1 = 5  # [-60, 0)


class DirectionClass(NamedTuple):
    radial: RadialMotion
    tangential: TangentialMotion

    @property
    def ordinal(self) -> int:
        return int(self.radial) * 3 + int(self.tangential)


class CombatObservation(NamedTuple):
    """Raw perception of the engaged opponent.

    `rel_velocity` is the opponent's planar velocity relative to the bot,
    expressed in the engagement frame: +x points from the bot to the
    opponent (away), +y is the bot's-view right.
    """

    distance: float
    rel_velocity: tuple[float, float]
    opponent_jumping: bool
    facing_angle: float
    weapon_instant_hit: bool


def discretize_distance(d: float) -> DistanceBand:
    """Band boundaries are closed above: 510 is still Close, 1700 still Medium."""
    if not math.isfinite(d) or d < 0:
        raise ValueError(f"distance {d} must be finite and >= 0")
    if d <= CLOSE_MAX_UU:
        return DistanceBand.CLOSE
    if d <= MEDIUM_MAX_UU:
        return DistanceBand.MEDIUM
    return DistanceBand.FAR


def discretize_speed(vx: float, vy: float) -> SpeedBand:
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError("velocity components must be finite")
    return SpeedBand.FAST if math.hypot(vx, vy) > FAST_MIN_UU_PER_S else SpeedBand.REGULAR


def classify_direction(rel_velocity: tuple[float, float]) -> DirectionClass:
    """Classify relative velocity in the engagement frame of
    CombatObservation: +x (away from the bot) is Away, -x Towards, and +y
    (the bot's-view right) is Right."""
    radial, tangential = rel_velocity
    if not (math.isfinite(radial) and math.isfinite(tangential)):
        raise ValueError("direction inputs must be finite")

    if abs(radial) < DIRECTION_DEAD_ZONE:
        r = RadialMotion.NONE
    else:
        r = RadialMotion.AWAY if radial > 0 else RadialMotion.TOWARDS
    if abs(tangential) < DIRECTION_DEAD_ZONE:
        t = TangentialMotion.NONE
    else:
        t = TangentialMotion.RIGHT if tangential > 0 else TangentialMotion.LEFT
    return DirectionClass(r, t)


def discretize_rotation(facing_angle: float) -> FacingSector:
    if not -180.0 <= facing_angle < 180.0:  # nan and inf fail too
        raise ValueError(f"facing angle {facing_angle} outside [-180, 180)")
    if facing_angle >= 0:
        if facing_angle < 60.0:
            return FacingSector.FR1
        if facing_angle < 120.0:
            return FacingSector.FR2
        return FacingSector.BR
    if facing_angle < -120.0:
        return FacingSector.BL
    if facing_angle < -60.0:
        return FacingSector.FL2
    return FacingSector.FL1


def encode_parts(
    distance: DistanceBand,
    speed: SpeedBand,
    jumping: bool,
    direction: DirectionClass,
    rotation: FacingSector,
    instant_hit: bool,
) -> int:
    index = int(distance)
    index = index * 2 + int(speed)
    index = index * 2 + int(jumping)
    index = index * 9 + direction.ordinal
    index = index * 6 + int(rotation)
    index = index * 2 + int(instant_hit)
    return index


def encode(obs: CombatObservation) -> int:
    """Discretize an observation into its state index in [0, 1296); its
    discretizers raise ValueError for a value outside their ranges."""
    vx, vy = obs.rel_velocity
    return encode_parts(
        discretize_distance(obs.distance),
        discretize_speed(vx, vy),
        obs.opponent_jumping,
        classify_direction(obs.rel_velocity),
        discretize_rotation(obs.facing_angle),
        obs.weapon_instant_hit,
    )


def decode(index: int) -> tuple[DistanceBand, SpeedBand, bool, DirectionClass, FacingSector, bool]:
    """Inverse of :func:`encode_parts`, mainly for inspection and testing."""
    if not 0 <= index < N_STATES:
        raise ValueError(f"state index {index} outside [0, {N_STATES})")
    index, instant = divmod(index, 2)
    index, rotation = divmod(index, 6)
    index, direction = divmod(index, 9)
    index, jumping = divmod(index, 2)
    distance, speed = divmod(index, 2)
    return (
        DistanceBand(distance),
        SpeedBand(speed),
        bool(jumping),
        DirectionClass(RadialMotion(direction // 3), TangentialMotion(direction % 3)),
        FacingSector(rotation),
        bool(instant),
    )
