"""Weapon categories, weapon specs, aim actions and priority selection."""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .encoder import DistanceBand
from .learner import LearnerConfig, QTable, QTableSet


class WeaponCategory(enum.Enum):
    INSTANT_HIT = "InstantHit"
    MACHINE_GUN = "MachineGun"
    PROJECTILE = "Projectile"
    SLOW_MOVING = "SlowMoving"
    CLOSE_RANGE = "CloseRange"
    OTHER = "Other"


CATEGORY_ORDER = tuple(WeaponCategory)

# Five aim actions per weapon category, in Q-table action order.
ACTION_LABELS: dict[WeaponCategory, tuple[str, ...]] = {
    WeaponCategory.INSTANT_HIT: ("Head", "Mid", "Legs", "Left", "Right"),
    WeaponCategory.MACHINE_GUN: ("Player", "Location", "Head", "Left", "Right"),
    WeaponCategory.PROJECTILE: ("Player", "Location", "Above", "Above-2", "Above-3"),
    WeaponCategory.SLOW_MOVING: ("Player", "Left", "Left-2", "Right", "Right-2"),
    WeaponCategory.CLOSE_RANGE: ("Head", "Mid", "Legs", "Left", "Right"),
    WeaponCategory.OTHER: ("Head", "Mid", "Legs", "Left", "Right"),
}

# Collision cylinder of a player model: 34 UU wide, 39 UU tall.
CYLINDER_RADIUS = 17.0
CYLINDER_HEIGHT = 39.0
HEAD_Z = 39.0
MID_Z = 19.5
LEGS_Z = 4.0
# How much higher each Above label aims than the one below it.
ABOVE_STEP = 120.0


# Where each aim label points, or None for a lock on the opponent: (height
# above the opponent's feet, number of ABOVE_STEPs higher, signed multiple of
# aim_skew toward the shooter's right).
AIM_POINTS: dict[str, tuple[float, int, float] | None] = {
    "Player": None,
    "Head": (HEAD_Z, 0, 0.0),
    "Mid": (MID_Z, 0, 0.0),
    "Location": (MID_Z, 0, 0.0),
    "Legs": (LEGS_Z, 0, 0.0),
    "Above": (MID_Z, 1, 0.0),
    "Above-2": (MID_Z, 2, 0.0),
    "Above-3": (MID_Z, 3, 0.0),
    "Left": (MID_Z, 0, -1.0),
    "Left-2": (MID_Z, 0, -2.0),
    "Right": (MID_Z, 0, 1.0),
    "Right-2": (MID_Z, 0, 2.0),
}


def field_types(cls) -> dict[str, str]:
    """Each field of the NamedTuple class `cls`, in order, by its annotation
    as written: under postponed annotations NamedTuple keeps "float" as
    ForwardRef('float')."""
    return {
        name: getattr(ref, "__forward_arg__", ref) for name, ref in cls.__annotations__.items()
    }


def check_params(params, at_least=None, above=None, may_be_inf=(), at_most=None) -> None:
    """Reject a field of the NamedTuple `params` that is out of range.

    Every float field must be finite, bar those `may_be_inf` names, which
    only their bounds test.  Each field `at_least` names must be >= its
    bound, each that `above` names must be > it and each that `at_most`
    names must be <= it; nan fails every test.
    """
    for name, kind in field_types(type(params)).items():
        value = getattr(params, name)
        if kind == "float" and name not in may_be_inf and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, lo in (at_least or {}).items():
        value = getattr(params, name)
        if not value >= lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")
    for name, lo in (above or {}).items():
        value = getattr(params, name)
        if not value > lo:
            raise ValueError(f"{name} must be > {lo}, got {value}")
    for name, hi in (at_most or {}).items():
        value = getattr(params, name)
        if not value <= hi:
            raise ValueError(f"{name} must be <= {hi}, got {value}")


class WeaponSpec(NamedTuple):
    # Each field but `name` is read from the [weapon:NAME] key of its name;
    # the fields with defaults are the keys a section may omit.
    name: str
    category: WeaponCategory
    damage: float
    interval: float
    instant_hit: bool = False
    speed: float = math.inf
    splash: float = 0.0
    self_damage: bool = False
    aim_skew: float = 80.0
    pellets: int = 1
    spread_deg: float = 0.0
    melee_range: float = 0.0

    def check(self) -> None:
        # A speed of inf means hitscan; 0 would leave a rocket in flight
        # forever, and a negative one would fly it backwards.  Below 0, the
        # spread would drop the scatter, the melee range would fire as
        # hitscan and the skew would swap Left and Right.
        check_params(
            self,
            at_least={"splash": 0, "spread_deg": 0, "melee_range": 0,
                      "aim_skew": 0, "pellets": 1},
            above={"damage": 0, "interval": 0, "speed": 0},
            may_be_inf=("speed",),
        )


ASSAULT_RIFLE = "assault_rifle"
SHIELD_GUN = "shield_gun"


class PriorityTables(NamedTuple):
    """Weapon preference per distance band, most preferred first."""

    close: tuple[str, ...]
    medium: tuple[str, ...]
    far: tuple[str, ...]

    def check(self) -> None:
        for band in (self.close, self.medium, self.far):
            if not band:
                raise ValueError("priority lists must be non-empty")

    def for_band(self, band: DistanceBand) -> tuple[str, ...]:
        return (self.close, self.medium, self.far)[int(band)]


def select_weapon(
    inventory: dict[str, int], band: DistanceBand, tables: PriorityTables
) -> str:
    """Best held weapon with ammo for the band, Assault Rifle / Shield Gun last."""
    if not inventory:
        raise ValueError("inventory is empty; agents always hold spawn weapons")
    for name in tables.for_band(band):
        if inventory.get(name, 0) > 0:
            return name
    if inventory.get(ASSAULT_RIFLE, 0) > 0:
        return ASSAULT_RIFLE
    if SHIELD_GUN in inventory:
        return SHIELD_GUN
    raise ValueError("inventory lacks the always-spawned fallback weapons")


def reward_for(damage: float) -> float:
    """Damage dealt this step, or the -1 penalty when the shot drew blood on nothing."""
    if not math.isfinite(damage) or damage < 0:
        raise ValueError(f"damage {damage} must be finite and >= 0")
    return damage if damage > 0 else -1.0


def resolve_aim(
    label: str,
    shooter_pos: tuple[float, float],
    opponent_pos: tuple[float, float, float],
    weapon: WeaponSpec,
) -> tuple[float, float, float] | None:
    """Turn an aim label into a world-space target point, or None for a lock
    on the opponent."""
    point = AIM_POINTS[label]
    if point is None:
        return None
    dz, steps, skew = point
    ox, oy, oz = opponent_pos
    z = oz + dz + steps * ABOVE_STEP
    if not skew:
        return (ox, oy, z)
    dx = ox - shooter_pos[0]
    dy = oy - shooter_pos[1]
    norm = math.hypot(dx, dy)
    ux, uy = (dx / norm, dy / norm) if norm else (1.0, 0.0)
    # The shooter's right, (-uy, ux), is the positive cross direction.
    skew *= weapon.aim_skew
    return (ox + skew * -uy, oy + skew * ux, z)


def new_table_set(cfg: LearnerConfig) -> QTableSet:
    """Fresh all-zero Q-tables, one per weapon category."""
    tables = {cat: QTable() for cat in CATEGORY_ORDER}
    return QTableSet(tables=tables, cfg=cfg, lives=0)
