import math
import random
import struct
from pathlib import Path
from typing import NamedTuple

import pytest

from sarsa_arena.arena import BehaviorParams, OpponentProfile, PhysicsParams
from sarsa_arena.config import HarnessParams, load_config
from sarsa_arena.encoder import DistanceBand, N_STATES
from sarsa_arena.harness import CampaignSettings
from sarsa_arena.weapons import (
    ACTION_LABELS,
    AIM_POINTS,
    ASSAULT_RIFLE,
    CATEGORY_ORDER,
    SHIELD_GUN,
    WeaponCategory,
    WeaponSpec,
    check_params,
    field_types,
    new_table_set,
    resolve_aim,
    reward_for,
    select_weapon,
)

ORIGIN = (0.0, 0.0)
OPP = (100.0, 200.0, 0.0)
CFG = load_config()


class TestActions:
    def test_instant_hit_column(self):
        assert ACTION_LABELS[WeaponCategory.INSTANT_HIT] == ("Head", "Mid", "Legs", "Left", "Right")

    def test_projectile_column(self):
        assert ACTION_LABELS[WeaponCategory.PROJECTILE] == (
            "Player", "Location", "Above", "Above-2", "Above-3",
        )

    def test_slow_moving_column(self):
        assert ACTION_LABELS[WeaponCategory.SLOW_MOVING] == (
            "Player", "Left", "Left-2", "Right", "Right-2",
        )

    def test_every_category_has_five_actions(self):
        pairs = set()
        for cat in CATEGORY_ORDER:
            labels = ACTION_LABELS[cat]
            assert len(labels) == 5
            pairs.update((cat, i) for i in range(len(labels)))
        assert len(pairs) == 30

    def test_total_state_action_pairs(self):
        assert N_STATES * 5 * 6 == 38_880


def spec_for(category: WeaponCategory, **kwargs) -> WeaponSpec:
    return WeaponSpec("test_gun", category, 10, 0.5, **kwargs)


def parsed_aim(label, shooter_pos, opponent_pos, weapon):
    """The aim resolution that parsed the label string on every call, kept as
    the reference for the AIM_POINTS table."""
    if label == "Player":
        return None

    ox, oy, oz = opponent_pos
    dx = ox - shooter_pos[0]
    dy = oy - shooter_pos[1]
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = dx / norm, dy / norm
    right = (-uy, ux)

    if label == "Head":
        return (ox, oy, oz + 39.0)
    if label in ("Mid", "Location"):
        return (ox, oy, oz + 19.5)
    if label == "Legs":
        return (ox, oy, oz + 4.0)
    if label.startswith("Above"):
        steps = {"Above": 1, "Above-2": 2, "Above-3": 3}[label]
        return (ox, oy, oz + 19.5 + steps * 120.0)
    if label.startswith(("Left", "Right")):
        factor = 2.0 if label.endswith("-2") else 1.0
        skew = factor * weapon.aim_skew
        if label.startswith("Left"):
            skew = -skew
        return (ox + skew * right[0], oy + skew * right[1], oz + 19.5)
    raise ValueError(f"unknown aim action {label!r}")


def bits(point):
    """The exact bits of an aim point, so that 0.0 and -0.0 differ."""
    return None if point is None else struct.pack("<3d", *point)


class TestResolveAim:
    def test_table_keys_are_the_action_labels(self):
        assert set(AIM_POINTS) == {label for labels in ACTION_LABELS.values() for label in labels}

    @pytest.mark.parametrize("weapon", [
        spec_for(WeaponCategory.OTHER),
        spec_for(WeaponCategory.OTHER, aim_skew=60.0),
        spec_for(WeaponCategory.OTHER, aim_skew=0.0),
        spec_for(WeaponCategory.OTHER, aim_skew=1e-300),
        spec_for(WeaponCategory.OTHER, aim_skew=33.3),
    ])
    def test_every_label_matches_the_parsing_reference_bit_for_bit(self, weapon):
        weapon.check()
        rng = random.Random(11)
        positions = [
            ((0.0, 0.0), (0.0, 0.0, 0.0)),  # the same point: norm == 0
            ((-0.0, -0.0), (0.0, 0.0, -0.0)),
            ((0.0, -0.0), (-0.0, 0.0, 7.0)),  # dx == -0.0
            ((1234.5, -87.25), (1234.5, -87.25, 48.0)),
            ((0.0, 0.0), (100.0, 200.0, 0.0)),
            ((0.0, 0.0), (-0.0, -300.0, -39.0)),
            ((4000.0, 0.1), (3.0, 3999.9, 12.5)),
            ((1e-300, 0.0), (0.0, 1e-300, 1e-300)),
        ] + [
            (
                (rng.uniform(-10, 4010), rng.uniform(-10, 4010)),
                (rng.uniform(-10, 4010), rng.uniform(-10, 4010), rng.uniform(-50, 200)),
            )
            for _ in range(40)
        ]
        for labels in ACTION_LABELS.values():
            for label in labels:
                for shooter, opponent in positions:
                    got = resolve_aim(label, shooter, opponent, weapon)
                    want = parsed_aim(label, shooter, opponent, weapon)
                    assert bits(got) == bits(want), (label, shooter, opponent)

    def test_head_targets_cylinder_top(self):
        aim = resolve_aim("Head", ORIGIN, OPP, spec_for(WeaponCategory.INSTANT_HIT))
        assert aim == (100.0, 200.0, 39.0)

    def test_player_is_locked_on(self):
        assert resolve_aim("Player", ORIGIN, OPP, spec_for(WeaponCategory.PROJECTILE)) is None

    def test_left_skews_by_default_amount(self):
        weapon = spec_for(WeaponCategory.INSTANT_HIT, aim_skew=25.0)
        aim = resolve_aim("Left", ORIGIN, OPP, weapon)
        # Shooter at origin looking at (100, 200): left is (uy, -ux) scaled.
        norm = math.hypot(100, 200)
        expected = (
            100.0 - 25.0 * (-200.0 / norm),
            200.0 - 25.0 * (100.0 / norm),
            19.5,
        )
        assert aim == pytest.approx(expected)

    def test_left_right_are_mirror_images(self):
        weapon = spec_for(WeaponCategory.SLOW_MOVING, aim_skew=60.0)
        mid = (OPP[0], OPP[1], OPP[2] + 19.5)
        for left_label, right_label in (("Left", "Right"), ("Left-2", "Right-2")):
            lp = resolve_aim(left_label, ORIGIN, OPP, weapon)
            rp = resolve_aim(right_label, ORIGIN, OPP, weapon)
            assert lp[0] + rp[0] == pytest.approx(2 * mid[0])
            assert lp[1] + rp[1] == pytest.approx(2 * mid[1])
            assert lp[2] == rp[2] == mid[2]

    def test_above_heights_increase(self):
        weapon = spec_for(WeaponCategory.PROJECTILE)
        zs = [
            resolve_aim(label, ORIGIN, OPP, weapon)[2]
            for label in ACTION_LABELS[WeaponCategory.PROJECTILE]
            if label.startswith("Above")
        ]
        assert zs == [19.5 + 120, 19.5 + 240, 19.5 + 360]

    def test_location_targets_mid_height(self):
        aim = resolve_aim("Location", ORIGIN, OPP, spec_for(WeaponCategory.PROJECTILE))
        assert aim == (100.0, 200.0, 19.5)


class TestSelectWeapon:
    def test_close_band_prefers_flak(self):
        tables = CFG.priority
        inv = {"flak_cannon": 10, ASSAULT_RIFLE: 100}
        assert select_weapon(inv, DistanceBand.CLOSE, tables) == "flak_cannon"

    def test_spawn_loadout_falls_back_to_assault(self):
        tables = CFG.priority
        inv = {ASSAULT_RIFLE: 100, SHIELD_GUN: 1}
        for band in DistanceBand:
            got = select_weapon(inv, band, tables)
            assert got in (ASSAULT_RIFLE, SHIELD_GUN)
        assert select_weapon(inv, DistanceBand.FAR, tables) == ASSAULT_RIFLE

    def test_out_of_ammo_weapon_skipped(self):
        tables = CFG.priority
        inv = {"flak_cannon": 0, "shock_rifle": 5, ASSAULT_RIFLE: 100}
        assert select_weapon(inv, DistanceBand.CLOSE, tables) == "shock_rifle"

    def test_empty_inventory_rejected(self):
        with pytest.raises(ValueError):
            select_weapon({}, DistanceBand.CLOSE, CFG.priority)

    def test_deterministic(self):
        tables = CFG.priority
        inv = {"rocket_launcher": 3, "link_gun": 7, ASSAULT_RIFLE: 50}
        picks = {select_weapon(inv, DistanceBand.MEDIUM, tables) for _ in range(10)}
        assert picks == {"rocket_launcher"}


class TestRewardFor:
    @pytest.mark.parametrize("damage,expected", [(0, -1.0), (35, 35.0), (1e-9, 1e-9)])
    def test_values(self, damage, expected):
        assert reward_for(damage) == expected

    def test_sign_property(self):
        for damage in (0.0, 0.5, 7, 45, 100):
            assert (reward_for(damage) >= 0) == (damage > 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            reward_for(-1)


class TestArmory:
    def test_priority_tables_reference_real_weapons(self):
        CFG.priority.validate_against(CFG.armory)

    def test_spawn_weapons_present(self):
        armory = CFG.armory
        assert ASSAULT_RIFLE in armory and SHIELD_GUN in armory

    def test_table_set_has_six_fresh_tables(self):
        tset = new_table_set(CFG.learner)
        assert list(tset.tables) == list(CATEGORY_ORDER)
        assert tset.lives == 0
        assert all(not t.q for t in tset.tables.values())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WeaponSpec("bad", WeaponCategory.OTHER, 0, 0.5).check()
        with pytest.raises(ValueError):
            WeaponSpec("bad", WeaponCategory.OTHER, 5, 0).check()
        with pytest.raises(ValueError):
            WeaponSpec("bad", WeaponCategory.OTHER, 5, 0.5, splash=-1).check()

    # A speed of 0 left rockets in flight forever, a negative one flew them
    # backwards; inf is hitscan.
    @pytest.mark.parametrize("speed", [0.0, -0.0, -900.0, -math.inf, math.nan])
    def test_projectile_speed_must_be_above_zero(self, speed):
        with pytest.raises(ValueError, match="speed must be > 0"):
            spec_for(WeaponCategory.PROJECTILE, speed=speed).check()

    # Once a run gone quietly wrong: an assault rifle of 0 pellets spent
    # ammo and counted misses but cast no ray.
    @pytest.mark.parametrize("pellets", [0, -1])
    def test_pellets_must_be_at_least_one(self, pellets):
        with pytest.raises(ValueError, match=f"pellets must be >= 1, got {pellets}"):
            spec_for(WeaponCategory.INSTANT_HIT)._replace(pellets=pellets).check()

    # Once a run gone quietly wrong: a negative spread removed the scatter, a
    # negative melee range fired the shield gun as a hitscan weapon, and a
    # negative skew swapped the points Left and Right aim at.
    @pytest.mark.parametrize("field", ["splash", "spread_deg", "melee_range", "aim_skew"])
    def test_radii_spread_and_skew_must_not_be_negative(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -2.5"):
            spec_for(WeaponCategory.OTHER)._replace(**{field: -2.5}).check()
        spec_for(WeaponCategory.OTHER)._replace(**{field: 0.0}).check()

    @pytest.mark.parametrize("field", [
        name for name, kind in field_types(WeaponSpec).items()
        if kind == "float" and name != "speed"
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_other_floats_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            spec_for(WeaponCategory.OTHER)._replace(**{field: value}).check()


def parent_accepts(cls, v) -> bool:
    """The range checks each parameter class made before check_params, kept
    as the reference for it: whether the field values `v` pass them."""
    def finite(*skip):
        return all(
            math.isfinite(v[name])
            for name, kind in field_types(cls).items() if kind == "float" and name not in skip
        )

    def campaign_ranges():
        return not v["games"] < 1 and 0.0 < v["minutes"] < math.inf and not v["snapshot_every"] < 0

    if cls is OpponentProfile:
        return finite() and all(
            0.0 <= v[name] < math.inf for name in ("fov_deg", "turn_rate_deg_s", "speed_fraction")
        )
    if cls is PhysicsParams:
        return finite() and not v["tick_hz"] < 1 and not v["decision_every"] < 1 and not any(
            v[name] < 0 for name in (
                "spawn_assault_ammo", "weapon_pickup_ammo", "ammo_pickup_amount",
                "base_speed", "rl_fov_deg", "rl_turn_rate_deg_s",
            )
        )
    if cls is BehaviorParams:
        return finite() and v["strafe_flip_min_s"] <= v["strafe_flip_max_s"] and all(
            v[name] >= 0.0 for name in (
                "dodge_radius", "waypoint_radius", "pit_avoid_margin",
                "fire_align_tolerance_deg", "engage_range", "scripted_stop_range",
            )
        )
    if cls is WeaponSpec:
        return (
            v["speed"] > 0.0 and finite("speed")
            and not v["damage"] <= 0 and not v["interval"] <= 0
            and not any(
                v[name] < 0 for name in ("splash", "spread_deg", "melee_range", "aim_skew")
            )
            and not v["pellets"] < 1
        )
    if cls in (HarnessParams, CampaignSettings):
        return campaign_ranges()
    raise AssertionError(cls)


SWEEP_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, -5, -1, -0.5, -1e-300, -0.0,
    0, 0.0, 1e-300, 0.5, 1, 2,
]

# The int fields with a lower bound: nan passed every such bound before, as
# `nan < 1` is False, and fails it now.  No config reads nan into an int.
NEWLY_REJECTED_NAN = {
    "PhysicsParams": {
        "tick_hz", "decision_every", "spawn_assault_ammo", "weapon_pickup_ammo",
        "ammo_pickup_amount",
    },
    "WeaponSpec": {"pellets"},
    "HarnessParams": {"games", "snapshot_every"},
    "CampaignSettings": {"games", "snapshot_every"},
}

# The int fields with an upper bound, and the values above it: inf met
# tick_hz's lower bound before, for a tick of 0 s, and fails its bound of
# sys.float_info.max now.
NEWLY_REJECTED_LARGE = {
    "PhysicsParams": {("tick_hz", math.inf)},
}

# The float fields that were only required to be finite and must now be
# >= 0, so every negative value is newly rejected.  A negative aim lag leads
# a moving target (the handicap becomes foresight), and a negative delay or
# duration ends at once what it should hold for a while.
NEWLY_REJECTED_NEGATIVE = {
    "OpponentProfile": {"aim_lag_s"},
    "PhysicsParams": {"aim_lag_s", "respawn_delay_s", "pickup_respawn_s", "jump_duration_s"},
}


class TestCheckParams:
    @pytest.mark.parametrize("base", [
        CFG.profiles[1],
        CFG.physics,
        CFG.behavior,
        CFG.armory["rocket_launcher"],
        CFG.harness,
        CampaignSettings(level=1, games=1, minutes=1.0, seed=1, out_dir=Path("unused"),
                         snapshot_every=0),
    ], ids=lambda base: type(base).__name__)
    def test_accepts_and_rejects_what_the_parent_checks_did(self, base):
        cls = type(base)
        changed_nan, changed_large, changed_negative = set(), set(), set()
        for name, kind in field_types(cls).items():
            if kind not in ("int", "float"):
                continue
            for value in SWEEP_VALUES:
                v = base._asdict()
                v[name] = value
                try:
                    base._replace(**{name: value}).check()
                    accepted = True
                except ValueError:
                    accepted = False
                if accepted != parent_accepts(cls, v):
                    assert not accepted, (name, value)
                    if kind == "int" and math.isnan(value):
                        changed_nan.add(name)
                    elif kind == "int" and value >= 1e308:
                        changed_large.add((name, value))
                    else:
                        assert kind == "float" and value < 0, (name, value)
                        changed_negative.add((name, value))
        assert changed_nan == NEWLY_REJECTED_NAN.get(cls.__name__, set())
        assert changed_large == NEWLY_REJECTED_LARGE.get(cls.__name__, set())
        negatives = [value for value in SWEEP_VALUES if -math.inf < value < 0]
        assert changed_negative == {
            (name, value)
            for name in NEWLY_REJECTED_NEGATIVE.get(cls.__name__, ()) for value in negatives
        }

    def test_messages(self):
        # Quoted, as the package's postponed annotations are.
        class Params(NamedTuple):
            count: "int"
            size: "float"
            speed: "float"

        def message(count=1, size=1.0, speed=1.0):
            with pytest.raises(ValueError) as exc:
                check_params(Params(count, size, speed), at_least={"count": 1},
                             above={"size": 0, "speed": 0}, may_be_inf=("speed",),
                             at_most={"count": 10})
            return str(exc.value)

        check_params(Params(1, 1.0, math.inf), above={"speed": 0}, may_be_inf=("speed",))
        assert message(size=math.nan) == "size must be finite, got nan"
        assert message(size=-math.inf) == "size must be finite, got -inf"
        assert message(count=0) == "count must be >= 1, got 0"
        assert message(count=11) == "count must be <= 10, got 11"
        assert message(count=math.nan) == "count must be >= 1, got nan"
        assert message(size=-0.0) == "size must be > 0, got -0.0"
        # A field that may be inf is left to its bounds.
        assert message(speed=-math.inf) == "speed must be > 0, got -inf"
        assert message(speed=math.nan) == "speed must be > 0, got nan"
