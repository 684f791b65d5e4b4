"""INI configuration: bundled defaults plus optional user overrides."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
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


class ConfigError(ValueError):
    pass


def check_campaign_ranges(games: int, minutes: float, snapshot_every: int) -> None:
    """The ranges a campaign needs, shared by `[harness]` and `CampaignSettings`."""
    if games < 1:
        raise ValueError(f"games must be >= 1, got {games}")
    if not 0.0 < minutes < math.inf:
        raise ValueError(f"minutes must be finite and > 0, got {minutes}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")


@dataclass(frozen=True)
class HarnessParams:
    snapshot_every: int
    games: int
    minutes: float
    opponents: int

    def __post_init__(self) -> None:
        # The `train` flags --games, --minutes and --snapshot-every are
        # checked here too: the CLI applies them with dataclasses.replace.
        check_campaign_ranges(self.games, self.minutes, self.snapshot_every)
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


def _parse_schedule(section: configparser.SectionProxy, key: str) -> tuple:
    bands = []
    for chunk in section[key].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bound, _, eps = chunk.partition(":")
        bands.append((int(bound), float(eps)))
    return tuple(bands)


# How a field is read from its INI key, by the field's annotation (every
# module here uses postponed annotations, so these are strings).
_READERS = {
    "int": lambda section, key: section.getint(key),
    "float": lambda section, key: section.getfloat(key),
    "bool": lambda section, key: section.getboolean(key),
    "WeaponCategory": lambda section, key: WeaponCategory(section[key]),
    "tuple[str, ...]": lambda section, key: tuple(
        w.strip() for w in section[key].split(",")
    ),
    "tuple[tuple[int, float], ...]": _parse_schedule,
}

# [weapon:NAME] keys whose field has another name.
_WEAPON_KEYS = {
    "damage": "damage_per_hit",
    "interval": "fire_interval",
    "speed": "projectile_speed",
    "splash": "splash_radius",
}


def _read(cls, section: configparser.SectionProxy, keys: dict[str, str] | None = None, **given):
    """Build the dataclass `cls` from the keys `section` sets.

    Each key fills the field `keys` maps it to, or else the field of its own
    name; `given` supplies the fields that no key sets.  A key that no field
    reads, or a field without a default that no key sets, is an error.
    """
    to_key = {name: key for key, name in (keys or {}).items()}
    by_key = {to_key.get(f.name, f.name): f for f in fields(cls) if f.name not in given}
    _check_keys(section, by_key)
    values = dict(given)
    for key, f in by_key.items():
        if key in section:
            try:
                values[f.name] = _READERS[f.type](section, key)
            except ValueError as exc:
                raise ValueError(f"[{section.name}] {key}: {exc}") from exc
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"[{section.name}] lacks key {key!r}")
    return cls(**values)


def _check_keys(section: configparser.SectionProxy, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ValueError(f"[{section.name}] has unknown key {min(unknown)!r}")


_ARENA_KEYS = {"size", "walls", "pits", "spawns", "weapon_pickups", "ammo_pickups"}


def _numbers(section: configparser.SectionProxy, key: str) -> list[list[float]]:
    """The `;`-separated entries of `key`, each a list of numbers."""
    items = section[key].split(";")
    return [[float(tok) for tok in item.split()] for item in items if item.strip()]


def _parse_arena(section: configparser.SectionProxy) -> Arena:
    _check_keys(section, _ARENA_KEYS)
    walls = [Wall(x1, y1, x2, y2) for x1, y1, x2, y2 in _numbers(section, "walls")]
    pits = [Pit(x, y, r) for x, y, r in _numbers(section, "pits")]
    spawns = [(x, y) for x, y in _numbers(section, "spawns")]
    pickups = []
    for item in section["weapon_pickups"].split(";"):
        if item.strip():
            name, xs, ys = item.split()
            pickups.append(PickupSpot("weapon", name, float(xs), float(ys)))
    pickups += [PickupSpot("ammo", None, x, y) for x, y in _numbers(section, "ammo_pickups")]
    return Arena(
        size=section.getfloat("size"),
        walls=tuple(walls),
        pits=tuple(pits),
        spawn_points=tuple(spawns),
        pickups=tuple(pickups),
    )


_SECTIONS = {"learner", "schedule", "physics", "behavior", "arena", "priority", "harness"}


def _build(parser: configparser.ConfigParser) -> SimConfig:
    armory = {}
    profiles = {}
    for section in parser.sections():
        kind, _, name = section.partition(":")
        if kind == "weapon" and name:
            armory[name] = _read(WeaponSpec, parser[section], _WEAPON_KEYS, name=name)
        elif kind == "opponent" and name:
            level = int(name)
            profiles[level] = _read(OpponentProfile, parser[section], level=level)
        elif section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}]")
    priority = _read(PriorityTables, parser["priority"])
    priority.validate_against(armory)
    arena = _parse_arena(parser["arena"])
    for spot in arena.pickups:
        if spot.kind == "weapon" and spot.weapon not in armory:
            raise ConfigError(f"pickup references unknown weapon {spot.weapon!r}")
    schedule = _read(ExplorationSchedule, parser["schedule"])
    return SimConfig(
        learner=_read(LearnerConfig, parser["learner"], {"lambda": "lam"}, schedule=schedule),
        armory=armory,
        priority=priority,
        arena=arena,
        physics=_read(PhysicsParams, parser["physics"]),
        behavior=_read(BehaviorParams, parser["behavior"]),
        profiles=profiles,
        harness=_read(HarnessParams, parser["harness"]),
    )


def _bundled_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    defaults = resources.files("sarsa_arena").joinpath("data/default.cfg")
    parser.read_string(defaults.read_text(encoding="ascii"))
    return parser


def load_config(path: str | os.PathLike | None = None) -> SimConfig:
    """Bundled defaults, optionally overridden by the INI file at `path`."""
    parser = _bundled_parser()
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:  # a missing file, a directory, no permission
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
    try:
        return _build(parser)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc


def default_config() -> SimConfig:
    """The bundled defaults."""
    return _build(_bundled_parser())
