"""INI configuration: bundled defaults plus optional user overrides."""

from __future__ import annotations

import configparser
import os
from importlib import resources
from typing import NamedTuple

from .learner import ExplorationSchedule, LearnerConfig
from .records import (
    Arena,
    BehaviorParams,
    OpponentProfile,
    PhysicsParams,
    PickupSpot,
    Pit,
    Wall,
)
from .weapons import PriorityTables, WeaponCategory, WeaponSpec, field_types


class ConfigError(ValueError):
    pass


class SimConfig(NamedTuple):
    learner: LearnerConfig
    armory: dict[str, WeaponSpec]
    priority: PriorityTables
    arena: Arena
    physics: PhysicsParams
    behavior: BehaviorParams
    profiles: dict[int, OpponentProfile]


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
            values[name] = _named(f"[{section.name}] {key}:", _READERS[kind], section, key)
        elif name not in cls._field_defaults:
            raise ValueError(f"[{section.name}] lacks key {key!r}")
    record = cls(**values)
    _named(f"[{section.name}]", record.check)
    return record


def _named(where: str, call, *args):
    """`call(*args)`, whose ValueError is raised again with `where` in front."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from exc


def _check_keys(section: configparser.SectionProxy, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ValueError(f"[{section.name}] has unknown key {min(unknown)!r}")


# Each list key of [arena]: `;`-separated entries of the fields named here,
# all numbers but a weapon's name, and what an entry makes of them.
_ARENA_LISTS = {
    "walls": ("x1 y1 x2 y2", Wall),
    "pits": ("x y radius", Pit),
    "spawns": ("x y", lambda x, y: (x, y)),
    "weapon_pickups": ("weapon x y", lambda name, x, y: PickupSpot("weapon", name, x, y)),
    "ammo_pickups": ("x y", lambda x, y: PickupSpot("ammo", None, x, y)),
}


def _arena_list(section: configparser.SectionProxy, key: str) -> tuple:
    fields, make = _ARENA_LISTS[key]
    names = fields.split()
    entries = []
    for item in filter(str.strip, section[key].split(";")):
        values = item.split()
        if len(values) != len(names):
            raise ValueError(f"{item.strip()!r} needs the fields {fields}")
        entries.append(make(*(v if n == "weapon" else float(v) for n, v in zip(names, values))))
    return tuple(entries)


def _parse_arena(section: configparser.SectionProxy) -> Arena:
    """The checked Arena that `section` describes."""
    _check_keys(section, {"size", *_ARENA_LISTS})
    lists = {key: _named(f"[arena] {key}:", _arena_list, section, key) for key in _ARENA_LISTS}
    arena = Arena(
        size=_named("[arena] size:", section.getfloat, "size"),
        walls=lists["walls"],
        pits=lists["pits"],
        spawn_points=lists["spawns"],
        pickups=lists["weapon_pickups"] + lists["ammo_pickups"],
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


_SECTIONS = {"learner", "schedule", "physics", "behavior", "arena", "priority"}


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
    arena = _parse_arena(parser["arena"])
    uses = [(f"[priority] {band}", name)
            for band, names in priority._asdict().items() for name in names]
    uses += [("[arena] weapon_pickups", s.weapon) for s in arena.pickups if s.kind == "weapon"]
    for where, name in uses:
        if name not in armory:
            raise ValueError(f"{where} names unknown weapon {name!r}")
    schedule = _read(ExplorationSchedule, parser["schedule"])
    return SimConfig(
        learner=_read(LearnerConfig, parser["learner"], {"lambda": "lam"}, schedule=schedule),
        armory=armory,
        priority=priority,
        arena=arena,
        physics=_read(PhysicsParams, parser["physics"]),
        behavior=_read(BehaviorParams, parser["behavior"]),
        profiles=profiles,
    )


def load_config(path: str | os.PathLike | None = None) -> SimConfig:
    """Bundled defaults, optionally overridden by the INI file at `path`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
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
        raise ConfigError(f"invalid configuration: {exc}") from exc
