"""INI configuration: bundled defaults plus optional user overrides."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from importlib import resources

from .arena import (
    Arena,
    BehaviorParams,
    OpponentProfile,
    PhysicsParams,
    PickupSpot,
    Pit,
    Wall,
)
from .learner import ExplorationSchedule, LearnerConfig
from .weapons import PriorityTables, WeaponCategory, WeaponSpec

ENV_VAR = "SARSA_ARENA_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HarnessParams:
    snapshot_every: int = 50
    games: int = 30
    minutes: float = 3.0
    opponents: int = 3

    def __post_init__(self) -> None:
        if self.opponents < 1:
            raise ValueError(f"opponents must be >= 1, got {self.opponents}")


@dataclass(frozen=True)
class SimConfig:
    learner: LearnerConfig
    armory: dict[str, WeaponSpec]
    priority: PriorityTables
    arena: Arena
    physics: PhysicsParams
    behavior: BehaviorParams
    profiles: dict[int, OpponentProfile]
    harness: HarnessParams


def _parse_schedule(raw: str) -> ExplorationSchedule:
    bands = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bound, _, eps = chunk.partition(":")
        bands.append((int(bound), float(eps)))
    return ExplorationSchedule(tuple(bands))


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split()]


def _parse_arena(section: configparser.SectionProxy) -> Arena:
    walls = []
    for item in section["walls"].split(";"):
        if item.strip():
            x1, y1, x2, y2 = _parse_floats(item)
            walls.append(Wall(x1, y1, x2, y2))
    pits = []
    for item in section["pits"].split(";"):
        if item.strip():
            x, y, r = _parse_floats(item)
            pits.append(Pit(x, y, r))
    spawns = []
    for item in section["spawns"].split(";"):
        if item.strip():
            x, y = _parse_floats(item)
            spawns.append((x, y))
    pickups = []
    for item in section["weapon_pickups"].split(";"):
        if item.strip():
            name, xs, ys = item.split()
            pickups.append(PickupSpot("weapon", name, float(xs), float(ys)))
    for item in section["ammo_pickups"].split(";"):
        if item.strip():
            x, y = _parse_floats(item)
            pickups.append(PickupSpot("ammo", None, x, y))
    return Arena(
        size=section.getfloat("size"),
        walls=tuple(walls),
        pits=tuple(pits),
        spawn_points=tuple(spawns),
        pickups=tuple(pickups),
    )


def _parse_weapon(name: str, section: configparser.SectionProxy) -> WeaponSpec:
    try:
        category = WeaponCategory(section["category"])
    except ValueError as exc:
        raise ConfigError(f"weapon {name!r}: {exc}") from exc
    return WeaponSpec(
        name=name,
        category=category,
        damage_per_hit=section.getfloat("damage"),
        fire_interval=section.getfloat("interval"),
        instant_hit=section.getboolean("instant_hit", fallback=False),
        projectile_speed=section.getfloat("speed", fallback=float("inf")),
        splash_radius=section.getfloat("splash", fallback=0.0),
        self_damage=section.getboolean("self_damage", fallback=False),
        aim_skew=section.getfloat("aim_skew", fallback=80.0),
        above_step=section.getfloat("above_step", fallback=120.0),
        pellets=section.getint("pellets", fallback=1),
        spread_deg=section.getfloat("spread_deg", fallback=0.0),
        melee_range=section.getfloat("melee_range", fallback=0.0),
    )


def _parse_profile(level: int, section: configparser.SectionProxy) -> OpponentProfile:
    return OpponentProfile(
        level=level,
        speed_fraction=section.getfloat("speed_fraction"),
        strafes=section.getboolean("strafes"),
        dodges=section.getboolean("dodges"),
        closes_distance=section.getboolean("closes_distance"),
        max_aim_error_deg=section.getfloat("max_aim_error_deg"),
        fov_deg=section.getfloat("fov_deg"),
        turn_rate_deg_s=section.getfloat("turn_rate_deg_s"),
        aim_lag_s=section.getfloat("aim_lag_s"),
        combat_jump_prob_s=section.getfloat("combat_jump_prob_s"),
    )


def _build(parser: configparser.ConfigParser) -> SimConfig:
    learner = LearnerConfig(
        alpha=parser.getfloat("learner", "alpha"),
        gamma=parser.getfloat("learner", "gamma"),
        lam=parser.getfloat("learner", "lambda"),
        schedule=_parse_schedule(parser.get("schedule", "bands")),
    )
    phys = parser["physics"]
    physics = PhysicsParams(
        tick_hz=phys.getint("tick_hz"),
        decision_every=phys.getint("decision_every"),
        base_speed=phys.getfloat("base_speed"),
        respawn_delay_s=phys.getfloat("respawn_delay_s"),
        jump_duration_s=phys.getfloat("jump_duration_s"),
        jump_height_uu=phys.getfloat("jump_height_uu"),
        pickup_respawn_s=phys.getfloat("pickup_respawn_s"),
        spawn_assault_ammo=phys.getint("spawn_assault_ammo"),
        weapon_pickup_ammo=phys.getint("weapon_pickup_ammo"),
        ammo_pickup_amount=phys.getint("ammo_pickup_amount"),
        eye_height=phys.getfloat("eye_height"),
        rl_fov_deg=phys.getfloat("rl_fov_deg"),
        rl_turn_rate_deg_s=phys.getfloat("rl_turn_rate_deg_s"),
        aim_lag_s=phys.getfloat("aim_lag_s"),
    )
    beh = parser["behavior"]
    behavior = BehaviorParams(
        strafe_flip_min_s=beh.getfloat("strafe_flip_min_s"),
        strafe_flip_max_s=beh.getfloat("strafe_flip_max_s"),
        jump_prob_per_s=beh.getfloat("jump_prob_per_s"),
        dodge_radius=beh.getfloat("dodge_radius"),
        waypoint_radius=beh.getfloat("waypoint_radius"),
        pit_avoid_margin=beh.getfloat("pit_avoid_margin"),
        fire_align_tolerance_deg=beh.getfloat("fire_align_tolerance_deg"),
        engage_range=beh.getfloat("engage_range"),
        scripted_stop_range=beh.getfloat("scripted_stop_range"),
    )
    armory = {}
    profiles = {}
    for section in parser.sections():
        if section.startswith("weapon:"):
            name = section.split(":", 1)[1]
            armory[name] = _parse_weapon(name, parser[section])
        elif section.startswith("opponent:"):
            level = int(section.split(":", 1)[1])
            profiles[level] = _parse_profile(level, parser[section])
    priority = PriorityTables(
        close=tuple(w.strip() for w in parser.get("priority", "close").split(",")),
        medium=tuple(w.strip() for w in parser.get("priority", "medium").split(",")),
        far=tuple(w.strip() for w in parser.get("priority", "far").split(",")),
    )
    priority.validate_against(armory)
    harness = HarnessParams(
        snapshot_every=parser.getint("harness", "snapshot_every"),
        games=parser.getint("harness", "games"),
        minutes=parser.getfloat("harness", "minutes"),
        opponents=parser.getint("harness", "opponents"),
    )
    arena = _parse_arena(parser["arena"])
    for spot in arena.pickups:
        if spot.kind == "weapon" and spot.weapon not in armory:
            raise ConfigError(f"pickup references unknown weapon {spot.weapon!r}")
    return SimConfig(
        learner=learner,
        armory=armory,
        priority=priority,
        arena=arena,
        physics=physics,
        behavior=behavior,
        profiles=profiles,
        harness=harness,
    )


def load_config(path: str | os.PathLike | None = None) -> SimConfig:
    """Bundled defaults, optionally overridden by `path` or $SARSA_ARENA_CONFIG."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    defaults = resources.files("sarsa_arena").joinpath("data/default.cfg")
    parser.read_string(defaults.read_text(encoding="ascii"))
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
    try:
        return _build(parser)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def default_config() -> SimConfig:
    """The bundled defaults, ignoring any environment override."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    defaults = resources.files("sarsa_arena").joinpath("data/default.cfg")
    parser.read_string(defaults.read_text(encoding="ascii"))
    return _build(parser)
