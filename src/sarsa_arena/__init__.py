"""Deterministic FPS-combat simulator with an online Sarsa(lambda) shooter."""

from .config import ConfigError, SimConfig, default_config, load_config
from .encoder import CombatObservation, N_STATES, decode, encode
from .harness import (
    Campaign,
    CampaignSettings,
    GameRecord,
    LifeRecord,
    run_campaign,
)
from .learner import (
    ExplorationSchedule,
    LearnerConfig,
    QTable,
    QTableSet,
    sarsa_update,
    select_action,
    terminal_update,
)
from .snapshots import read_snapshot, write_snapshot
from .weapons import WeaponCategory, WeaponSpec, new_table_set

__version__ = "0.1.0"

__all__ = [
    "Campaign",
    "CampaignSettings",
    "CombatObservation",
    "ConfigError",
    "ExplorationSchedule",
    "GameRecord",
    "LearnerConfig",
    "LifeRecord",
    "N_STATES",
    "QTable",
    "QTableSet",
    "SimConfig",
    "WeaponCategory",
    "WeaponSpec",
    "decode",
    "default_config",
    "encode",
    "load_config",
    "new_table_set",
    "read_snapshot",
    "run_campaign",
    "sarsa_update",
    "select_action",
    "terminal_update",
    "write_snapshot",
]
