"""INI configuration: bundled defaults plus optional user overrides."""

from __future__ import annotations

import configparser
import os
from importlib import resources
from typing import NamedTuple

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
from .weapons import PriorityTables, WeaponCategory, WeaponSpec, check_params, field_types


class ConfigError(ValueError):
    pass


class HarnessParams(NamedTuple):
    snapshot_every: int
    games: int
    minutes: float

    def check(self) -> None:
        check_params(self, at_least={"games": 1, "snapshot_every": 0}, above={"minutes": 0})


class SimConfig(NamedTuple):
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


# How a field is read from its INI key, by the field's annotation as written
# (see field_types).
_READERS = {
    "int": lambda section, key: section.getint(key),
    "float": lambda section, key: section.getfloat(key),
    "bool": lambda section, key: section.getboolean(key),
    "WeaponCategory": lambda section, key: WeaponCategory(section[key]),
    "tuple[str, ...]": lambda section, key: tuple(
        w.strip() for w in section[key].split(",") if w.strip()
    ),
    "tuple[tuple[int, float], ...]": _parse_schedule,
}


def _read(cls, section: configparser.SectionProxy, keys: dict[str, str] | None = None, **given):
    """Build the NamedTuple `cls` from the keys `section` sets, and check it.

    Each key fills the field `keys` maps it to, or else the field of its own
    name; `given` supplies the fields that no key sets.  A key that no field
    reads, or a field without a default that no key sets, is an error, and
    so is a record that `cls.check` rejects.
    """
    to_key = {name: key for key, name in (keys or {}).items()}
    by_key = {
        to_key.get(name, name): (name, kind)
        for name, kind in field_types(cls).items() if name not in given
    }
    _check_keys(section, by_key)
    values = dict(given)
    for key, (name, kind) in by_key.items():
        if key in section:
            try:
                values[name] = _READERS[kind](section, key)
            except ValueError as exc:
                raise ValueError(f"[{section.name}] {key}: {exc}") from exc
        elif name not in cls._field_defaults:
            raise ValueError(f"[{section.name}] lacks key {key!r}")
    record = cls(**values)
    try:
        record.check()
    except ValueError as exc:
        raise ValueError(f"[{section.name}] {exc}") from exc
    return record


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
    """The checked Arena that `section` describes."""
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
    arena = Arena(
        size=section.getfloat("size"),
        walls=tuple(walls),
        pits=tuple(pits),
        spawn_points=tuple(spawns),
        pickups=tuple(pickups),
    )
    # No [arena] prefix: each message names the arena or its key at fault.
    arena.check()
    return arena


def _level(section: str, name: str) -> int:
    """The level of the section `[opponent:NAME]`.  NAME must be an int as
    `str` writes it: `[opponent:01]` would otherwise replace the bundled
    `[opponent:1]` whole, where `[opponent:1]` overrides it key by key."""
    try:
        if str(int(name)) == name:
            return int(name)
    except ValueError:
        pass
    raise ValueError(f"[{section}] must name its level as an integer, such as [opponent:1]")


_SECTIONS = {"learner", "schedule", "physics", "behavior", "arena", "priority", "harness"}


def _build(parser: configparser.ConfigParser) -> SimConfig:
    armory = {}
    profiles = {}
    for section in parser.sections():
        kind, _, name = section.partition(":")
        if kind == "weapon" and name:
            armory[name] = _read(WeaponSpec, parser[section], name=name)
        elif kind == "opponent" and name:
            profiles[_level(section, name)] = _read(OpponentProfile, parser[section])
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


def load_config(path: str | os.PathLike | None = None) -> SimConfig:
    """Bundled defaults, optionally overridden by the INI file at `path`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    defaults = resources.files("sarsa_arena").joinpath("data/default.cfg")
    parser.read_string(defaults.read_text(encoding="ascii"))
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:  # a missing file, a directory, no permission
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
    try:
        return _build(parser)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc
