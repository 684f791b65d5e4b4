"""Deterministic FPS-combat simulator with an online Sarsa(lambda) shooter.

The package namespace is lazy (PEP 562): `import sarsa_arena` loads no
submodule, and the first use of an exported name imports the submodule
that defines it.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "ConfigError": "config",
    "SimConfig": "config",
    "load_config": "config",
    "CombatObservation": "encoder",
    "N_STATES": "encoder",
    "decode": "encoder",
    "encode": "encoder",
    "Campaign": "harness",
    "CampaignSettings": "harness",
    "GameRecord": "harness",
    "LifeRecord": "harness",
    "run_campaign": "harness",
    "ExplorationSchedule": "learner",
    "LearnerConfig": "learner",
    "QTable": "learner",
    "QTableSet": "learner",
    "sarsa_update": "learner",
    "select_action": "learner",
    "terminal_update": "learner",
    "read_snapshot": "snapshots",
    "write_snapshot": "snapshots",
    "WeaponCategory": "weapons",
    "WeaponSpec": "weapons",
    "new_table_set": "weapons",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
