import configparser
import hashlib
import re
from importlib import resources

import pytest

from sarsa_arena.config import ConfigError, load_config
from sarsa_arena.weapons import ASSAULT_RIFLE, SHIELD_GUN, WeaponCategory, WeaponSpec

# The bundled defaults as built, pinned: the INI file is their only source,
# so a change to how it is read must leave every value and type as it was.
DEFAULT_CONFIG_REPR_SHA256 = "a0339cb2ade0bb2977d2dfb82cef5001fb58d1554e530edf19042e1c31710206"


def load(tmp_path, text):
    path = tmp_path / "user.cfg"
    path.write_text(text)
    return load_config(path)


def test_default_config_repr_is_pinned():
    text = repr(load_config())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CONFIG_REPR_SHA256


# No unreachable content: an agent holds only the spawn weapons and what it
# picks up, so a bundled weapon with neither is a dead section, and a
# priority entry naming one is never chosen.
def test_every_bundled_weapon_can_be_held():
    sim = load_config()
    holdable = {ASSAULT_RIFLE, SHIELD_GUN} | {
        spot.weapon for spot in sim.arena.pickups if spot.kind == "weapon"
    }
    assert set(sim.armory) - holdable == set()
    priority = sim.priority
    assert set(priority.close + priority.medium + priority.far) - holdable == set()


# A WeaponSpec default that no bundled section overrides is a constant in
# disguise.  The record cannot tell a default from a set value, so this reads
# the keys of the bundled INI.
def test_every_optional_weapon_key_is_set_by_some_section():
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    bundled = resources.files("sarsa_arena").joinpath("data/default.cfg")
    parser.read_string(bundled.read_text(encoding="ascii"))
    set_keys = {
        key for section in parser.sections() if section.startswith("weapon:")
        for key in parser[section]
    }
    assert set(WeaponSpec._field_defaults) - set_keys == set()


def test_new_weapon_takes_optional_values_from_weapon_spec(tmp_path):
    sim = load(tmp_path, "[weapon:foo]\ncategory = Other\ndamage = 5\ninterval = 0.5\n")
    assert sim.armory["foo"] == WeaponSpec("foo", WeaponCategory.OTHER, 5.0, 0.5)


def test_override_reaches_only_its_field(tmp_path):
    sim = load(tmp_path, "[weapon:rocket_launcher]\nsplash = 200\n[physics]\ntick_hz = 60\n")
    base = load_config()
    rocket = sim.armory["rocket_launcher"]
    assert rocket.splash == 200.0
    assert rocket.speed == base.armory["rocket_launcher"].speed
    assert sim.physics.tick_hz == 60
    assert sim.physics.decision_every == base.physics.decision_every


@pytest.mark.parametrize("text,key", [
    ("[physics]\ntick_hzz = 60\n", "tick_hzz"),
    ("[behavior]\ndodge = 1\n", "dodge"),
    ("[learner]\nlam = 0.9\n", "lam"),  # the INI key is `lambda`
    ("[schedule]\nband = 0:0.5\n", "band"),
    ("[priority]\nnear = shock_rifle\n", "near"),
    ("[arena]\nsizes = 100\n", "sizes"),
    ("[opponent:1]\nlevel = 3\n", "level"),  # taken from the section name
    ("[weapon:shock_rifle]\ndamage_per_hit = 5\n", "damage_per_hit"),  # the key is damage
    ("[weapon:shock_rifle]\nname = other\n", "name"),
])
def test_key_no_field_reads_is_rejected(tmp_path, text, key):
    with pytest.raises(ConfigError, match=f"invalid configuration: .*unknown key '{key}'"):
        load(tmp_path, text)


# A range error names the section and the key that the file sets.
@pytest.mark.parametrize("key,value,message", [
    ("damage", "0", "damage must be > 0, got 0.0"),
    ("interval", "0", "interval must be > 0, got 0.0"),
    ("speed", "0", "speed must be > 0, got 0.0"),
    ("splash", "-1", "splash must be >= 0, got -1.0"),
])
def test_weapon_range_error_names_its_key(tmp_path, key, value, message):
    with pytest.raises(
        ConfigError, match=f"^invalid configuration: \\[weapon:rocket_launcher\\] {message}$"
    ):
        load(tmp_path, f"[weapon:rocket_launcher]\n{key} = {value}\n")


# Once "invalid configuration: damage must be > 0, got 0.0", which did not
# say which of the 13 weapons was wrong.  Every section read into a checked
# record names itself; [arena]'s messages name its keys instead.
@pytest.mark.parametrize("text,message", [
    ("[weapon:link_gun]\ndamage = 0\n", "[weapon:link_gun] damage must be > 0, got 0.0"),
    ("[opponent:3]\nfov_deg = -1\n", "[opponent:3] fov_deg must be >= 0, got -1.0"),
    ("[physics]\ntick_hz = 0\n", "[physics] tick_hz must be >= 1, got 0"),
    ("[behavior]\nstrafe_flip_min_s = 9\n",
     "[behavior] strafe_flip_min_s (9.0) must not exceed strafe_flip_max_s (1.5)"),
    ("[learner]\nalpha = 0\n", "[learner] alpha 0.0 outside (0, 1]"),
    ("[schedule]\nbands = 5:0.5\n", "[schedule] first band must start at 0 lives"),
])
def test_range_error_names_its_section(tmp_path, text, message):
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, text)
    assert str(exc.value) == f"invalid configuration: {message}"


# Every key of an opponent section, so that only the section's name can be
# at fault: the bundled [opponent:1] but for speed_fraction.
WHOLE_OPPONENT = """speed_fraction = 0.1
strafes = no
dodges = no
closes_distance = no
max_aim_error_deg = 2.6
fov_deg = 35
turn_rate_deg_s = 180
aim_lag_s = 0.1
combat_jump_prob_s = 0.0
"""


# Once "invalid literal for int() with base 10: 'two'", naming no section,
# and [opponent:01] replaced the bundled [opponent:1] whole.
@pytest.mark.parametrize("name", ["two", "01", "+1", " 1", "1.0", "None", "-"])
def test_opponent_section_must_name_its_level_as_written(tmp_path, name):
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, f"[opponent:{name}]\n{WHOLE_OPPONENT}")
    assert str(exc.value) == (
        f"invalid configuration: [opponent:{name}] must name its level as an integer, "
        "such as [opponent:1]"
    )


def test_opponent_section_overrides_its_level_key_by_key(tmp_path):
    base = load_config().profiles[1]
    sim = load(tmp_path, "[opponent:1]\nspeed_fraction = 0.1\n")
    assert sorted(sim.profiles) == [1, 3, 5]
    assert sim.profiles[1] == base._replace(speed_fraction=0.1)
    # The whole section gives the same profile.
    assert load(tmp_path, f"[opponent:1]\n{WHOLE_OPPONENT}").profiles[1] == sim.profiles[1]


def test_config_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_bytes(b"[physics]\n# \xff\ntick_hz = 30\n")
    with pytest.raises(ConfigError, match=f"config file {re.escape(str(path))}: 'utf-8' codec"):
        load_config(path)


def test_tick_hz_must_fit_a_float(tmp_path):
    assert load(tmp_path, f"[physics]\ntick_hz = {10**308}\n").physics.tick_hz == 10**308
    with pytest.raises(ConfigError, match="tick_hz must be <= 1.7976931348623157e[+]308"):
        load(tmp_path, f"[physics]\ntick_hz = {10**309}\n")


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
    # Once "not enough values to unpack (expected 4, got 3)" and the like,
    # naming no key.
    ("[arena]\nwalls = 1200 1400 1200\n",
     r"\[arena\] walls: '1200 1400 1200' needs the fields x1 y1 x2 y2$"),
    ("[arena]\nspawns = 400 x; 3600 400; 400 3600; 3600 3600\n",
     r"\[arena\] spawns: could not convert string to float: 'x'$"),
    ("[arena]\nweapon_pickups = shock_rifle 2000\n",
     r"\[arena\] weapon_pickups: 'shock_rifle 2000' needs the fields weapon x y$"),
    ("[arena]\nsize = big\n", r"\[arena\] size: could not convert string to float: 'big'$"),
    # `%` is an ordinary character, not configparser's interpolation: these
    # once ended in an InterpolationSyntaxError or
    # InterpolationMissingOptionError traceback.
    ("[weapon:shock_rifle]\ndamage = 45%\n",
     r"\[weapon:shock_rifle\] damage: could not convert string to float: '45%'$"),
    ("[physics]\ntick_hz = %(x)s\n",
     r"\[physics\] tick_hz: invalid literal for int\(\) with base 10: '%\(x\)s'$"),
])
def test_unreadable_value_names_its_section_and_key(tmp_path, text, where):
    with pytest.raises(ConfigError, match=f"invalid configuration: {where}"):
        load(tmp_path, text)


def test_percent_is_kept_in_a_weapon_name(tmp_path):
    sim = load(tmp_path, (
        "[weapon:100%]\ncategory = Other\ndamage = 5\ninterval = 0.5\n"
        "[priority]\nclose = 100%, shield_gun\n"
    ))
    assert sim.priority.close == ("100%", "shield_gun")
    assert sim.armory["100%"].name == "100%"


# Every weapon name outside [weapon:NAME] is checked against the armory, and
# the error names where it is written.  The pickup's once lacked the
# "invalid configuration:" prefix, and the priority one named no band.
@pytest.mark.parametrize("text,message", [
    ("[priority]\nclose = nosuch\n", "[priority] close names unknown weapon 'nosuch'"),
    ("[priority]\nfar = shock_rifle, nosuch\n", "[priority] far names unknown weapon 'nosuch'"),
    ("[arena]\nweapon_pickups = nosuch 2000 600\n",
     "[arena] weapon_pickups names unknown weapon 'nosuch'"),
])
def test_unknown_weapon_names_its_section(tmp_path, text, message):
    with pytest.raises(ConfigError) as exc:
        load(tmp_path, text)
    assert str(exc.value) == f"invalid configuration: {message}"


# An empty name was once read as the weapon '', and an empty band as ('',),
# reported as an unknown weapon; empty names are dropped, as empty schedule
# bands are.
def test_empty_priority_band_is_rejected_as_empty(tmp_path):
    with pytest.raises(
        ConfigError,
        match=re.escape("invalid configuration: [priority] priority lists must be non-empty"),
    ):
        load(tmp_path, "[priority]\nclose =\n")


def test_empty_priority_names_are_dropped(tmp_path):
    sim = load(tmp_path, "[priority]\nclose = flak_cannon, , shield_gun\n")
    assert sim.priority.close == ("flak_cannon", "shield_gun")
