import hashlib
import inspect

import pytest

from sarsa_arena.arena import World
from sarsa_arena.config import ConfigError, default_config, load_config
from sarsa_arena.harness import CampaignSettings
from sarsa_arena.learner import LearnerConfig
from sarsa_arena.weapons import WeaponCategory, WeaponSpec

# The bundled defaults as built, pinned: the INI file is their only source,
# so a change to how it is read must leave every value and type as it was.
DEFAULT_CONFIG_REPR_SHA256 = "643c2740878b35cdb08710e05f96561d49e284025751159a4c269498d7723bf8"


def load(tmp_path, text):
    path = tmp_path / "user.cfg"
    path.write_text(text)
    return load_config(path)


def test_default_config_repr_is_pinned():
    text = repr(default_config())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CONFIG_REPR_SHA256


def test_load_config_without_overrides_equals_default_config():
    assert load_config() == default_config()


# Library defaults that repeat a value of default.cfg must stay in step with it.
def test_world_opponents_default_matches_harness_opponents():
    n_opponents = inspect.signature(World).parameters["n_opponents"].default
    assert n_opponents == default_config().harness.opponents


def test_campaign_snapshot_every_default_matches_harness():
    assert CampaignSettings.snapshot_every == default_config().harness.snapshot_every


def test_learner_config_defaults_match_learner_and_schedule_sections():
    assert LearnerConfig() == default_config().learner


def test_new_weapon_takes_optional_values_from_weapon_spec(tmp_path):
    sim = load(tmp_path, "[weapon:foo]\ncategory = Other\ndamage = 5\ninterval = 0.5\n")
    assert sim.armory["foo"] == WeaponSpec("foo", WeaponCategory.OTHER, 5.0, 0.5)


def test_override_reaches_only_its_field(tmp_path):
    sim = load(tmp_path, "[weapon:rocket_launcher]\nsplash = 200\n[physics]\ntick_hz = 60\n")
    base = default_config()
    rocket = sim.armory["rocket_launcher"]
    assert rocket.splash_radius == 200.0
    assert rocket.projectile_speed == base.armory["rocket_launcher"].projectile_speed
    assert sim.physics.tick_hz == 60
    assert sim.physics.decision_every == base.physics.decision_every


@pytest.mark.parametrize("text,key", [
    ("[physics]\ntick_hzz = 60\n", "tick_hzz"),
    ("[behavior]\ndodge = 1\n", "dodge"),
    ("[harness]\ngame = 3\n", "game"),
    ("[learner]\nlam = 0.9\n", "lam"),  # the INI key is `lambda`
    ("[schedule]\nband = 0:0.5\n", "band"),
    ("[priority]\nnear = shock_rifle\n", "near"),
    ("[arena]\nsizes = 100\n", "sizes"),
    ("[opponent:1]\nlevel = 3\n", "level"),  # taken from the section name
    ("[weapon:shock_rifle]\ndamage_per_hit = 5\n", "damage_per_hit"),
    ("[weapon:shock_rifle]\nname = other\n", "name"),
])
def test_key_no_field_reads_is_rejected(tmp_path, text, key):
    with pytest.raises(ConfigError, match=f"invalid configuration: .*unknown key '{key}'"):
        load(tmp_path, text)


def test_unknown_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[phyiscs\]"):
        load(tmp_path, "[phyiscs]\ntick_hz = 60\n")


@pytest.mark.parametrize("text,key", [
    ("[opponent:7]\nspeed_fraction = 0.5\n", "strafes"),
    ("[weapon:foo]\ncategory = Other\n", "damage"),
    ("[weapon:foo]\ndamage = 5\ninterval = 0.5\n", "category"),
])
def test_new_section_lacking_a_required_key_is_rejected(tmp_path, text, key):
    with pytest.raises(ConfigError, match=f"invalid configuration: .*lacks key '{key}'"):
        load(tmp_path, text)


@pytest.mark.parametrize("text,where", [
    ("[weapon:shock_rifle]\ncategory = Laser\n", r"\[weapon:shock_rifle\] category"),
    ("[physics]\ntick_hz = fast\n", r"\[physics\] tick_hz"),
    ("[opponent:1]\nstrafes = maybe\n", r"\[opponent:1\] strafes"),
])
def test_unreadable_value_names_its_section_and_key(tmp_path, text, where):
    with pytest.raises(ConfigError, match=f"invalid configuration: {where}"):
        load(tmp_path, text)


@pytest.mark.parametrize("key,value,message", [
    ("games", "0", "games must be >= 1"),
    ("minutes", "0", "minutes must be finite and > 0"),
    ("minutes", "-1", "minutes must be finite and > 0"),
    ("minutes", "nan", "minutes must be finite and > 0"),
    ("minutes", "inf", "minutes must be finite and > 0"),
    ("snapshot_every", "-1", "snapshot_every must be >= 0"),
])
def test_campaign_ranges_are_checked(tmp_path, key, value, message):
    with pytest.raises(ConfigError, match=message):
        load(tmp_path, f"[harness]\n{key} = {value}\n")


def test_campaign_range_edges_are_accepted(tmp_path):
    harness = load(tmp_path, "[harness]\ngames = 1\nminutes = 0.01\nsnapshot_every = 0\n").harness
    assert (harness.games, harness.minutes, harness.snapshot_every) == (1, 0.01, 0)
