"""Weapon categories, weapon specs, aim actions and priority selection."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class ShootAction:
    category: WeaponCategory
    index: int
    label: str


_ACTIONS: dict[WeaponCategory, tuple[ShootAction, ...]] = {
    category: tuple(ShootAction(category, i, label) for i, label in enumerate(labels))
    for category, labels in ACTION_LABELS.items()
}


def actions_for(category: WeaponCategory) -> tuple[ShootAction, ...]:
    """The category's five aim actions in Q-table order."""
    return _ACTIONS[category]


@dataclass(frozen=True)
class WeaponSpec:
    # The fields with defaults are the keys a [weapon:NAME] section may omit.
    name: str
    category: WeaponCategory
    damage_per_hit: float
    fire_interval: float
    instant_hit: bool = False
    projectile_speed: float = math.inf
    splash_radius: float = 0.0
    self_damage: bool = False
    aim_skew: float = 80.0
    above_step: float = 120.0
    pellets: int = 1
    spread_deg: float = 0.0
    melee_range: float = 0.0

    def __post_init__(self) -> None:
        # A speed of inf means hitscan; 0 would leave a rocket in flight
        # forever, and a negative one would fly it backwards.
        if not self.projectile_speed > 0.0:
            raise ValueError(f"projectile_speed must be > 0, got {self.projectile_speed}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and f.name != "projectile_speed" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.damage_per_hit <= 0:
            raise ValueError("damage_per_hit must be > 0")
        if self.fire_interval <= 0:
            raise ValueError("fire_interval must be > 0")
        if self.splash_radius < 0:
            raise ValueError("splash_radius must be >= 0")
        if self.pellets < 1:
            raise ValueError(f"pellets must be >= 1, got {self.pellets}")

    @property
    def is_hitscan(self) -> bool:
        return self.projectile_speed == math.inf


ASSAULT_RIFLE = "assault_rifle"
SHIELD_GUN = "shield_gun"


@dataclass(frozen=True)
class PriorityTables:
    """Weapon preference per distance band, most preferred first."""

    close: tuple[str, ...]
    medium: tuple[str, ...]
    far: tuple[str, ...]

    def __post_init__(self) -> None:
        for band in (self.close, self.medium, self.far):
            if not band:
                raise ValueError("priority lists must be non-empty")

    def for_band(self, band: DistanceBand) -> tuple[str, ...]:
        return (self.close, self.medium, self.far)[int(band)]

    def validate_against(self, armory: dict[str, WeaponSpec]) -> None:
        for band in (self.close, self.medium, self.far):
            for name in band:
                if name not in armory:
                    raise ValueError(f"priority table names unknown weapon {name!r}")


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
    action: ShootAction,
    shooter_pos: tuple[float, float],
    opponent_pos: tuple[float, float, float],
    weapon: WeaponSpec,
) -> tuple[float, float, float] | None:
    """Turn an abstract aim action into a world-space target point, or None
    for a lock on the opponent."""
    if action.label == "Player":
        return None

    ox, oy, oz = opponent_pos
    dx = ox - shooter_pos[0]
    dy = oy - shooter_pos[1]
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = dx / norm, dy / norm
    # Shooter's-view right is the positive cross direction of the line of fire.
    right = (-uy, ux)

    label = action.label
    if label == "Head":
        return (ox, oy, oz + HEAD_Z)
    if label in ("Mid", "Location"):
        return (ox, oy, oz + MID_Z)
    if label == "Legs":
        return (ox, oy, oz + LEGS_Z)
    if label.startswith("Above"):
        steps = {"Above": 1, "Above-2": 2, "Above-3": 3}[label]
        return (ox, oy, oz + MID_Z + steps * weapon.above_step)
    if label.startswith(("Left", "Right")):
        factor = 2.0 if label.endswith("-2") else 1.0
        skew = factor * weapon.aim_skew
        if label.startswith("Left"):
            skew = -skew
        return (ox + skew * right[0], oy + skew * right[1], oz + MID_Z)
    raise ValueError(f"unknown aim action {label!r}")


def new_table_set(cfg: LearnerConfig | None = None) -> QTableSet:
    """Fresh all-zero Q-tables, one per weapon category."""
    cfg = cfg or LearnerConfig()
    tables = {cat: QTable(cat) for cat in CATEGORY_ORDER}
    return QTableSet(tables=tables, cfg=cfg, lives=0)
