import hashlib
import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarsa_arena import geometry as geo
from sarsa_arena.arena import (
    Arena,
    AgentState,
    DamageEvent,
    GreedyController,
    INDEX_CELLS,
    KillEvent,
    MAX_ARENA_SIZE,
    PICKUP_RADIUS,
    PickupEvent,
    PickupSpot,
    Pit,
    RL_AGENT_ID,
    RandomController,
    RlShooterController,
    SpawnEvent,
    SuicideEvent,
    Wall,
    World,
    format_event,
    unit_towards,
)
from sarsa_arena.config import default_config
from sarsa_arena.encoder import N_STATES, CombatObservation, encode
from sarsa_arena.harness import evaluate_policy
from sarsa_arena.learner import N_ACTIONS
from sarsa_arena.weapons import (
    ASSAULT_RIFLE,
    CYLINDER_RADIUS,
    WeaponCategory,
    new_table_set,
)


def make_world(seed=1, level=1, tset=None, cfg=None):
    cfg = cfg or default_config()
    rng = random.Random(seed)
    tset = tset or new_table_set(cfg.learner)
    ctrl = RlShooterController(tset, cfg.armory, cfg.priority, rng)
    world = World(
        cfg.arena, cfg.armory, cfg.physics, cfg.behavior,
        cfg.profiles[level], ctrl, rng,
    )
    return world, ctrl, tset


GAME_TICKS = 30 * 60  # one simulated minute


class TestDeterminism:
    def test_same_seed_replays_identically(self):
        logs = []
        for _ in range(2):
            world, _, _ = make_world(seed=99)
            log = []
            for _ in range(GAME_TICKS):
                log.extend(format_event(e) for e in world.tick())
            logs.append(log)
        assert logs[0] == logs[1]
        assert len(logs[0]) > 20  # something actually happened

    def test_different_seed_differs(self):
        logs = []
        for seed in (1, 2):
            world, _, _ = make_world(seed=seed)
            log = []
            for _ in range(GAME_TICKS):
                log.extend(format_event(e) for e in world.tick())
            logs.append(log)
        assert logs[0] != logs[1]


class TestAccounting:
    def test_rl_deaths_match_lives_counter_and_events(self):
        world, ctrl, tset = make_world(seed=5, level=5)
        killed = suicides = completed = 0
        for _ in range(GAME_TICKS * 3):
            for e in world.tick():
                if isinstance(e, KillEvent) and e.victim == RL_AGENT_ID:
                    killed += 1
                elif isinstance(e, SuicideEvent) and e.victim == RL_AGENT_ID:
                    suicides += 1
            if world.completed_life is not None:
                completed += 1
                world.completed_life = None
        assert killed + suicides == tset.lives == completed
        assert tset.lives > 0

    # Seed 23 has suicides, 35 a kill by the bot in the tick it dies, and 42
    # a streak of two.
    @pytest.mark.parametrize("seed", [5, 23, 35, 42])
    def test_game_stats_equal_the_counts_of_the_events(self, seed):
        world, _, _ = make_world(seed=seed, level=5)
        # The oracle: the bot's kills, deaths and streaks counted from each
        # tick's events.
        kills = deaths_by_others = suicides = streak = max_streak = 0
        for _ in range(GAME_TICKS * 3):
            for event in world.tick():
                if isinstance(event, KillEvent):
                    if event.killer == RL_AGENT_ID and event.victim != RL_AGENT_ID:
                        kills += 1
                        streak += 1
                        max_streak = max(max_streak, streak)
                    if event.victim == RL_AGENT_ID:
                        deaths_by_others += 1
                        streak = 0
                elif isinstance(event, SuicideEvent):
                    if event.victim == RL_AGENT_ID:
                        suicides += 1
                        streak = 0
        game = world.game
        assert (
            game.kills, game.deaths_by_others, game.suicides,
            game.kill_streak, game.max_kill_streak,
        ) == (kills, deaths_by_others, suicides, streak, max_streak)
        assert kills > 0 and deaths_by_others > 0

    def test_spawn_resets_every_slot_it_does_not_set(self):
        world, _, _ = make_world(seed=1)
        agent = world.agents[2]
        junk = object()
        for name in AgentState.__slots__:
            if name != "id":
                setattr(agent, name, junk)
        world._spawn(agent, (500.0, 600.0))
        fresh = AgentState(agent.id)
        spawn_sets = {"x", "y", "yaw", "inventory", "alive", "waypoint", "strafe_dir"}
        for name in AgentState.__slots__:
            if name not in spawn_sets:
                assert getattr(agent, name) == getattr(fresh, name), name
        assert (agent.x, agent.y, agent.alive) == (500.0, 600.0, True)
        assert junk not in (agent.yaw, agent.inventory, agent.waypoint, agent.strafe_dir)

    def test_every_death_is_followed_by_a_spawn(self):
        world, _, _ = make_world(seed=5, level=5)
        deaths = {a.id: 0 for a in world.agents}
        spawns = {a.id: 0 for a in world.agents}
        for _ in range(GAME_TICKS * 2):
            for e in world.tick():
                if isinstance(e, KillEvent):
                    deaths[e.victim] += 1
                elif isinstance(e, SuicideEvent):
                    deaths[e.victim] += 1
                elif isinstance(e, SpawnEvent):
                    spawns[e.agent] += 1
        for agent_id, n in deaths.items():
            assert spawns[agent_id] in (n, n - 1)  # last death may still be pending

    def test_event_order_within_tick(self):
        kind_rank = {
            DamageEvent: 0, KillEvent: 1, SuicideEvent: 1,
            SpawnEvent: 2, PickupEvent: 3,
        }
        world, _, _ = make_world(seed=3, level=3)
        for _ in range(GAME_TICKS * 2):
            ranks = [kind_rank[type(e)] for e in world.tick()]
            assert ranks == sorted(ranks)

    def test_life_stats_hits_plus_misses_counts_shots(self):
        world, ctrl, _ = make_world(seed=8, level=1)
        shots = 0
        orig = ctrl.on_shot
        def counting():
            nonlocal shots
            shots += 1
            orig()
        ctrl.on_shot = counting
        recorded = 0
        for _ in range(GAME_TICKS * 2):
            world.tick()
            if world.completed_life is not None:
                recorded += world.completed_life.hits + world.completed_life.misses
                world.completed_life = None
        final = world.finalize_truncated_life()
        recorded += final.hits + final.misses
        # Projectiles still in flight at a life's end stay counted as misses,
        # so shots fired and shots recorded agree exactly.
        assert recorded == shots
        assert shots > 50


def test_world_has_fewer_than_30_instance_attributes():
    # CPython 3.11 loads attributes more slowly from an instance with 30 or
    # more of them, past the size of a class's shared key table: timeit on
    # CPython 3.11.7 ran a loop of five loads from a World 15% slower with 30
    # attributes than with 29.  World.tick reads its own attributes
    # throughout.
    world, _, _ = make_world()
    assert len(vars(world)) < 30


class TestPhysics:
    def test_agents_never_cross_walls_or_leave_arena(self):
        world, _, _ = make_world(seed=13, level=5)
        import sarsa_arena.geometry as geo
        prev = {a.id: a.pos for a in world.agents}
        for _ in range(GAME_TICKS * 2):
            respawned = {
                e.agent for e in world.tick() if isinstance(e, SpawnEvent)
            }
            for a in world.agents:
                if not a.alive or a.id in respawned:
                    prev[a.id] = a.pos
                    continue
                assert 0 <= a.x <= world.arena.size
                assert 0 <= a.y <= world.arena.size
                for wall in world.arena.walls:
                    assert not geo.segments_intersect(prev[a.id], a.pos, wall.a, wall.b)
                prev[a.id] = a.pos

    def test_speed_never_exceeds_base_speed(self):
        world, _, _ = make_world(seed=13, level=5)
        cap = world.physics.base_speed + 1e-6
        for _ in range(GAME_TICKS):
            world.tick()
            for a in world.agents:
                assert math.hypot(a.vx, a.vy) <= cap

    def test_stepping_into_a_pit_is_a_suicide(self):
        world, _, _ = make_world(seed=1)
        agent = world.agents[1]
        pit = world.arena.pits[0]
        agent.x, agent.y = pit.x, pit.y  # ground gives way under them
        events = world.tick()
        suicide = [e for e in events if isinstance(e, SuicideEvent) and e.victim == 1]
        assert suicide and suicide[0].cause == "pit"
        assert not agent.alive

    def test_jumping_clears_a_pit(self):
        world, _, _ = make_world(seed=1)
        agent = world.agents[1]
        pit = world.arena.pits[0]
        agent.x, agent.y = pit.x, pit.y
        agent.jump_t = 0.1  # airborne
        world.tick()
        assert agent.alive


class TestShooting:
    def test_clear_shot_at_static_target_hits(self):
        world, ctrl, _ = make_world(seed=1)
        shooter, target = world.agents[0], world.agents[1]
        shooter.x, shooter.y = 1000.0, 1000.0
        target.x, target.y = 1200.0, 1000.0
        weapon = world.armory[ASSAULT_RIFLE].__class__(
            ASSAULT_RIFLE, WeaponCategory.MACHINE_GUN, 7, 0.11, instant_hit=True,
        )
        records = []
        hit = world._hitscan(shooter, weapon, (1200.0, 1000.0, 19.5), records)
        assert hit
        assert records == [(0, 1, 7, ASSAULT_RIFLE, False)]

    def test_wall_blocks_hitscan(self):
        world, _, _ = make_world(seed=1)
        shooter, target = world.agents[0], world.agents[1]
        # The default map has a wall at x=1200 spanning y in [1400, 2600].
        shooter.x, shooter.y = 1000.0, 2000.0
        target.x, target.y = 1400.0, 2000.0
        weapon = world.armory["shock_rifle"].__class__(
            "shock_rifle", WeaponCategory.INSTANT_HIT, 45, 0.6, instant_hit=True,
        )
        records = []
        hit = world._hitscan(shooter, weapon, (1400.0, 2000.0, 19.5), records)
        assert not hit and not records

    def test_projectile_splash_damages_shooter(self):
        world, _, _ = make_world(seed=1)
        shooter = world.agents[0]
        shooter.x, shooter.y = 1000.0, 1000.0
        rocket = world.armory["rocket_launcher"]
        # Fire into the ground right at the shooter's feet.
        world._launch_projectile(shooter, rocket, (1010.0, 1000.0, 0.0))
        records = []
        for _ in range(5):
            world._advance_projectiles(world.physics.dt, records)
        self_hits = [r for r in records if r[1] == 0 and r[4]]
        assert self_hits, "splash should reach the shooter"

    def test_hitscan_spread_draws(self):
        # Opponents draw their aim error even when it is 0; the bot draws its
        # weapon's spread only when it is above 0.  Either way one shot uses
        # at most one draw of the world's stream.
        world, _, _ = make_world(seed=1)
        world.profile = replace(world.profile, max_aim_error_deg=0.0)
        shock = replace(world.armory["shock_rifle"], spread_deg=0.0)
        aim = (2000.0, 400.0, 19.5)
        state = world.rng.getstate()
        world._hitscan(world.agents[0], shock, aim, [])
        assert world.rng.getstate() == state
        world._hitscan(world.agents[1], shock, aim, [])
        probe = random.Random()
        probe.setstate(state)
        probe.random()
        assert world.rng.getstate() == probe.getstate()
        world._hitscan(world.agents[0], replace(shock, spread_deg=1.0), aim, [])
        probe.random()
        assert world.rng.getstate() == probe.getstate()

    FAR = [(3600.0, 400.0), (400.0, 3600.0), (3600.0, 3600.0)]

    @pytest.mark.parametrize("positions,aim_point,ticks,damaged,ledger,flying", [
        # A direct hit on 1 and splash on 2: one hit, not two.
        (
            [(1000.0, 1000.0), (1300.0, 1000.0), (1300.0, 1060.0), (3600.0, 3600.0)],
            (1300.0, 1000.0, 19.5), 20, [(1, False), (2, False)], (1, 0), 0,
        ),
        # Splash on the shooter alone stays a miss.
        ([(1000.0, 1000.0)] + FAR, (1010.0, 1000.0, 0.0), 5, [(0, True)], (0, 1), 0),
        # Counted a miss at launch, and still one while in flight.
        ([(1000.0, 1000.0)] + FAR, (3000.0, 1000.0, 19.5), 1, [], (0, 1), 1),
    ])
    def test_bot_rocket_ledger(self, positions, aim_point, ticks, damaged, ledger, flying):
        world, _, _ = make_world(seed=1)
        for agent, (x, y) in zip(world.agents, positions):
            agent.x, agent.y = x, y
        world._launch_projectile(
            world.agents[0], world.armory["rocket_launcher"], aim_point
        )
        records = []
        for _ in range(ticks):
            world._advance_projectiles(world.physics.dt, records)
        assert [(r[1], r[4]) for r in records] == damaged
        assert (world.life.hits, world.life.misses) == ledger
        assert len(world.projectiles) == flying

    def test_bot_killed_by_its_own_rocket_is_a_self_splash_suicide(self):
        world, _, _ = make_world(seed=1)
        for agent, (x, y) in zip(world.agents, [(1000.0, 1000.0)] + self.FAR):
            agent.x, agent.y = x, y
        bot = world.agents[RL_AGENT_ID]
        bot.health = 5.0
        world._launch_projectile(bot, world.armory["rocket_launcher"], (1010.0, 1000.0, 0.0))
        for _ in range(5):
            world.tick()
            if world.completed_life is not None:
                break
        # The death_cause that lives.csv records for this life.
        assert world.completed_life.cause == "suicide-self-splash"
        assert (world.game.suicides, world.game.deaths_by_others) == (1, 0)

    # The fix moves outputs, so it waits for the next re-pin of every digest.
    @pytest.mark.xfail(strict=True, reason=(
        "_detonate tests splash with segments_intersect, which counts a "
        "detonation point on a wall as blocked by that wall"
    ))
    @pytest.mark.parametrize("shooter,aim_point,opponent", [
        # The west outer wall, x = 0.
        ((400.0, 2000.0), (0.0, 2000.0, 19.5), (60.0, 2080.0)),
        # The east face of the interior wall at x = 1200.
        ((1600.0, 2000.0), (1200.0, 2000.0, 19.5), (1260.0, 2080.0)),
    ])
    def test_rocket_on_a_wall_splashes_its_own_side(self, shooter, aim_point, opponent):
        world, _, _ = make_world(seed=1)
        for agent, (x, y) in zip(world.agents, [shooter, opponent] + self.FAR):
            agent.x, agent.y = x, y
        world._launch_projectile(
            world.agents[0], world.armory["rocket_launcher"], aim_point
        )
        records = []
        for _ in range(20):
            world._advance_projectiles(world.physics.dt, records)
        assert not world.projectiles
        # The opponent stands about 100 uu from the blast, inside the
        # 150 uu splash radius, on the shooter's side of the wall.
        assert [(r[1], r[4]) for r in records] == [(1, False)]

    def test_jumping_target_evades_locked_on_shot(self):
        world, _, _ = make_world(seed=1)
        shooter, target = world.agents[0], world.agents[1]
        shooter.x, shooter.y = 1000.0, 1000.0
        target.x, target.y, target.z = 1500.0, 1000.0, 55.0  # mid-jump
        target.jump_t = 0.3
        weapon = world.armory[ASSAULT_RIFLE]
        records = []
        hit = world._hitscan(shooter, weapon, (1500.0, 1000.0, 19.5), records)
        assert not hit  # the ray passes under the airborne cylinder


OBS = CombatObservation(
    distance=800.0,
    rel_velocity=(0.0, 0.0),
    opponent_jumping=False,
    facing_angle=10.0,
    weapon_instant_hit=True,
)
STATE = encode(OBS)


def make_controller():
    cfg = default_config()
    tset = new_table_set(cfg.learner)
    ctrl = RlShooterController(tset, cfg.armory, cfg.priority, random.Random(0))
    agent = AgentState(0)
    agent.inventory = {ASSAULT_RIFLE: 1000}
    return ctrl, tset, agent


class TestLearningPlumbing:
    def test_damage_reward_updates_q(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        cat, s, a = ctrl.pending
        assert cat is WeaponCategory.MACHINE_GUN and s == STATE
        ctrl.on_shot()
        ctrl.on_damage_dealt(14.0)
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        # Fresh table: delta = 14 + gamma*0 - 0, so Q(s,a) = alpha * 14.
        assert tset.tables[cat].value(s, a) == pytest.approx(0.7 * 14.0)
        assert ctrl.life_reward == pytest.approx(14.0)

    def test_zero_damage_shot_costs_one(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        cat, s, a = ctrl.pending
        ctrl.on_shot()
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        assert tset.tables[cat].value(s, a) == pytest.approx(-0.7)
        assert ctrl.life_reward == pytest.approx(-1.0)

    def test_silent_interval_leaves_q_untouched(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        ctrl.decide(agent, 800.0, lambda instant: OBS)  # no shot fired between
        assert all(not t.q for t in tset.tables.values())
        assert ctrl.life_reward == 0.0

    def test_death_triggers_terminal_update_and_life_bookkeeping(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, 800.0, lambda instant: OBS)
        cat, s, a = ctrl.pending
        ctrl.on_shot()
        ctrl.on_damage_dealt(30.0)
        reward = ctrl.on_death()
        assert reward == pytest.approx(30.0)
        assert tset.tables[cat].value(s, a) == pytest.approx(0.7 * 30.0)
        assert tset.lives == 1
        assert ctrl.pending is None
        assert all(not t.traces for t in tset.tables.values())

    def test_cross_category_switch_resets_traces(self):
        ctrl, tset, agent = make_controller()
        agent.inventory["flak_cannon"] = 50
        ctrl.decide(agent, 800.0, lambda instant: OBS)  # medium: machine gun
        mg_cat, s, a = ctrl.pending
        ctrl.on_shot()
        ctrl.on_damage_dealt(10.0)
        ctrl.decide(agent, 300.0, lambda instant: OBS)  # close: flak cannon
        new_cat, _, _ = ctrl.pending
        assert mg_cat is WeaponCategory.MACHINE_GUN
        assert new_cat is WeaponCategory.CLOSE_RANGE
        assert tset.tables[mg_cat].value(s, a) == pytest.approx(0.7 * 10.0)
        # Credit must not leak across the category switch.
        assert not tset.tables[mg_cat].traces


class TestArenaValidation:
    def test_spawn_in_pit_rejected(self):
        with pytest.raises(ValueError):
            Arena(
                size=1000.0,
                walls=(),
                pits=(Pit(100, 100, 60),),
                spawn_points=((100, 100), (900, 100), (100, 900), (900, 900)),
                pickups=(),
            )

    def test_too_few_spawns_rejected(self):
        with pytest.raises(ValueError):
            Arena(size=1000.0, walls=(), pits=(), spawn_points=((1, 1),), pickups=())

    # Above MAX_ARENA_SIZE, squared distances could overflow float (at 1e200
    # the spawn-in-pit test did).
    @pytest.mark.parametrize(
        "size", [30.0, math.nextafter(MAX_ARENA_SIZE, math.inf), 1e200, math.inf]
    )
    def test_arena_narrower_than_an_agent_or_infinite_rejected(self, size):
        with pytest.raises(ValueError):
            Arena(
                size=size, walls=(), pits=(),
                spawn_points=((10, 10), (20, 10), (10, 20), (20, 20)), pickups=(),
            )

    @pytest.mark.parametrize("pit", [
        Pit(math.nan, 2000.0, 200.0),
        Pit(2000.0, math.inf, 200.0),
        Pit(2000.0, 2000.0, -200.0),
        Pit(2000.0, 2000.0, math.nan),
        Pit(2000.0, 2000.0, math.inf),
        Pit(1e308, 2000.0, 1e308),  # finite, but its bounding box is not
        # Finite box, but one rounding step at |centre| + radius is 32768 uu,
        # wider than the cells (500 uu at size 20000): see FAR_PIT below.
        Pit(-1e20, 2000.0, 1e20),
    ])
    def test_pit_needs_finite_centre_and_radius_at_least_zero(self, pit):
        with pytest.raises(ValueError, match="pit"):
            replace(default_config().arena, size=20000.0, pits=(pit,))

    def test_pit_accepted_while_its_rounding_stays_under_a_sixteenth_cell(self):
        # size 20000: cells of 500 uu, so a step under 31.25 uu is accepted.
        near = Pit(-2.0 ** 47, 2000.0, 2.0 ** 47 - 1000.0)  # |c| + r < 2 ** 48: step 1/32
        far = Pit(-2.0 ** 60, 2000.0, 2.0 ** 60 - 1000.0)  # |c| + r >= 2 ** 60: step 256
        replace(default_config().arena, size=20000.0, pits=(near,))
        with pytest.raises(ValueError, match="1/16 of an index cell"):
            replace(default_config().arena, size=20000.0, pits=(far,))

    def test_widest_arena_plays_with_its_farthest_pit(self):
        # |centre| + radius = 6e112 rounds by 2 ** 322 < 1/16 of a cell, so
        # the pit is admitted; its squared distances stay finite in play.
        far = Pit(-6e112, 5e99, 1e99)
        arena = Arena(
            size=MAX_ARENA_SIZE, walls=(), pits=(far,),
            spawn_points=((1e99, 1e99), (9e99, 1e99), (1e99, 9e99), (9e99, 9e99)),
            pickups=(),
        )
        world = world_in(arena)
        for _ in range(60):
            world.tick()
        assert all(agent.alive for agent in world.agents)

    def test_far_pickup_spot_rejected(self):
        with pytest.raises(ValueError, match="pickup"):
            replace(default_config().arena, pickups=(PickupSpot("ammo", None, 1e18, 600.0),))

    @pytest.mark.parametrize("x,y", [(math.nan, 600.0), (600.0, math.inf), (-math.inf, 600.0)])
    def test_pickup_spot_must_be_finite(self, x, y):
        with pytest.raises(ValueError, match="pickup"):
            replace(default_config().arena, pickups=(PickupSpot("ammo", None, x, y),))

    def test_zero_radius_pit_and_arena_edge_features_accepted(self):
        arena = replace(
            default_config().arena,
            pits=(Pit(2000.0, 2000.0, 0.0), Pit(-5000.0, 2000.0, 5100.0)),
            pickups=(PickupSpot("ammo", None, 0.0, 4000.0),),
        )
        assert arena.proximity[1]

    @pytest.mark.parametrize("field", ["tick_hz", "decision_every"])
    def test_physics_rates_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            replace(default_config().physics, **{field: 0})

    @pytest.mark.parametrize("field", [
        "dodge_radius", "waypoint_radius", "pit_avoid_margin",
        "fire_align_tolerance_deg", "engage_range", "scripted_stop_range",
    ])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_margins_radii_and_ranges_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(default_config().behavior, **{field: value})

    @pytest.mark.parametrize("lo,hi", [(1.6, 1.5), (math.nan, 1.5), (0.5, math.nan)])
    def test_strafe_flip_min_above_max_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="strafe_flip_min_s"):
            replace(default_config().behavior, strafe_flip_min_s=lo, strafe_flip_max_s=hi)

    @pytest.mark.parametrize("field", ["fov_deg", "turn_rate_deg_s", "speed_fraction"])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_profile_angles_and_speed_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(default_config().profiles[1], **{field: value})

    def test_default_arena_is_valid(self):
        arena = default_config().arena
        assert len(arena.blocking_segments) == len(arena.walls) + 4

    def test_default_profiles_cover_levels(self):
        assert set(default_config().profiles) == {1, 3, 5}


# ---------------------------------------------------------------------------
# World.line_of_sight against the reference predicate


DIAGONAL_ARENA = Arena(
    size=4000.0,
    walls=(
        Wall(500, 500, 3500, 1700),
        Wall(1000, 3000, 3000, 3000),
        Wall(2600, 3400, 2000, 2000.5),
    ),
    pits=(),
    spawn_points=((100, 100), (3900, 100), (100, 3900), (3900, 3900)),
    pickups=(),
)


def world_in(arena):
    cfg = default_config()
    rng = random.Random(0)
    ctrl = RlShooterController(new_table_set(cfg.learner), cfg.armory, cfg.priority, rng)
    return World(arena, cfg.armory, cfg.physics, cfg.behavior, cfg.profiles[1], ctrl, rng)


WORLDS = {"default": world_in(default_config().arena), "diagonal": world_in(DIAGONAL_ARENA)}


@st.composite
def inside_points(draw, arena):
    """Points strictly inside `arena`, many of them on or next to a wall."""
    size = arena.size
    coord = st.floats(0.0, size, exclude_min=True, exclude_max=True)
    kind = draw(st.sampled_from(["free", "on-line", "end", "near-end"]))
    if kind == "free" or not arena.walls:
        return draw(coord), draw(coord)
    w = draw(st.sampled_from(arena.walls))
    if kind == "on-line":
        # On the wall's line, inside or beyond the wall; exact for the
        # axis-parallel walls, within rounding for the others.
        t = draw(st.floats(-2.0, 3.0))
        x, y = w.x1 + t * (w.x2 - w.x1), w.y1 + t * (w.y2 - w.y1)
    else:
        x, y = draw(st.sampled_from([w.a, w.b]))
        if kind == "near-end":
            for _ in range(draw(st.integers(0, 3))):
                x = math.nextafter(x, draw(st.sampled_from([0.0, size])))
            for _ in range(draw(st.integers(0, 3))):
                y = math.nextafter(y, draw(st.sampled_from([0.0, size])))
    x = min(max(x, 1.0), size - 1.0)
    y = min(max(y, 1.0), size - 1.0)
    return x, y


def assert_matches_reference(world, p, q):
    for a, b in ((p, q), (q, p)):
        expected = not any(
            geo.segments_intersect(a, b, s1, s2)
            for s1, s2 in world.arena.blocking_segments
        )
        assert world.line_of_sight(a[0], a[1], b[0], b[1]) is expected


class TestLineOfSight:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(WORLDS)))
    def test_equals_segments_intersect_over_all_segments(self, data, name):
        world = WORLDS[name]
        p = data.draw(inside_points(world.arena), label="p")
        q = data.draw(inside_points(world.arena), label="q")
        assert_matches_reference(world, p, q)

    def test_crossing_reported_outside_the_bounding_box(self):
        # segments_intersect reports this crossing, one ulp past the wall's
        # lower end, although the segment's bounding box misses the wall's:
        # a bounding-box reject would disagree with it here.
        p = (149.66157272965086, 264.9437894059264)
        q = (1200.0000000000002, 1399.9999999999998)
        assert max(p[1], q[1]) < 1400.0
        assert geo.segments_intersect(p, q, (1200.0, 1400.0), (1200.0, 2600.0))
        assert_matches_reference(WORLDS["default"], p, q)

    def test_collinear_with_a_wall(self):
        world = WORLDS["default"]
        x = 1200.0
        assert not world.line_of_sight(x, 1000.0, x, 1500.0)  # overlaps the wall
        assert not world.line_of_sight(x, 2600.0, x, 3000.0)  # touches its end
        assert world.line_of_sight(x, 2700.0, x, 3000.0)  # beyond its end
        assert world.line_of_sight(1000.0, 2000.0, 1100.0, 2000.0)
        assert not world.line_of_sight(1000.0, 2000.0, 1300.0, 2000.0)


# ---------------------------------------------------------------------------
# _move's fast paths: the comparison clamp and the zero step


OPEN_ARENA = Arena(
    size=4000.0, walls=(), pits=(),
    spawn_points=((100, 100), (3900, 100), (100, 3900), (3900, 3900)),
    pickups=(),
)
walkable = st.floats(17.0, 4000.0 - 17.0)
velocity = st.one_of(
    st.floats(-2e5, 2e5),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


def same(a, b):
    """Equal bit for bit, NaN included."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestMoveFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(x=walkable, y=walkable, vx=velocity, vy=velocity)
    def test_clamp_equals_min_max(self, x, y, vx, vy):
        world = world_in(OPEN_ARENA)  # nothing blocks, so every step is taken
        agent = world.agents[RL_AGENT_ID]
        agent.x, agent.y, agent.vx, agent.vy = x, y, vx, vy
        world._move(agent, world.dt)
        r, size = CYLINDER_RADIUS, OPEN_ARENA.size
        nx = min(max(x + vx * world.dt, r), size - r)
        ny = min(max(y + vy * world.dt, r), size - r)
        assert same(agent.x, nx) and same(agent.y, ny)
        assert same(world.game.distance_uu, math.hypot(nx - x, ny - y))

    @pytest.mark.parametrize("x,y,vx,clear", [
        (1000.0, 1000.0, 0.0, True),  # standing still in the open
        (1200.0, 2000.0, 0.0, False),  # standing on a wall: a blocked point
        (CYLINDER_RADIUS, 1000.0, -300.0, True),  # pushing against the boundary
    ])
    def test_zero_step_skips_line_of_sight_with_the_same_outcome(self, x, y, vx, clear):
        world = world_in(default_config().arena)
        agent = world.agents[RL_AGENT_ID]
        agent.x, agent.y, agent.vx, agent.vy = x, y, vx, 0.0
        # Either answer of the old line-of-sight test left the position as it
        # was and added hypot(0, 0) == 0.0 or 0.0 to the distance.
        assert world.line_of_sight(x, y, x, y) is clear
        calls = []
        world.line_of_sight = lambda *args: calls.append(args) or True
        before = (world.game.distance_uu, world.game.time_moving_s)
        world._move(agent, world.dt)
        assert calls == []
        assert (agent.x, agent.y) == (x, y)
        assert (world.game.distance_uu, world.game.time_moving_s) == before


# ---------------------------------------------------------------------------
# The proximity index against the full scans it replaced


# Pits and pickups that straddle cell edges and reach past the arena's edge.
# The first pit's right edge, x + radius, is 199.99999999994179, in cell 1
# (cells are 100 wide); yet at (200.0, 2000.0), in cell 2, 200.0 - x rounds
# to the radius exactly and the pit test passes.  Only the index's growth by
# one whole cell puts the pit in cell 2.
EDGE_PIT = Pit(-524100.0 - 2.0 ** -34, 2000.0, 524300.0)
STRADDLE_ARENA = Arena(
    size=4000.0,
    walls=(),
    pits=(EDGE_PIT, Pit(3950.5, 1234.5678, 75.25), Pit(2000.0, 2000.0, 0.0),
          Pit(2050.0, 2099.9, 60.0)),
    spawn_points=((400, 400), (3600, 400), (400, 3600), (3600, 3600)),
    pickups=(
        PickupSpot("weapon", "shock_rifle", 2050.0, 30.0),
        PickupSpot("ammo", None, 199.9, 3999.0),
        PickupSpot("ammo", None, 2000.0, 2030.0),
        PickupSpot("weapon", "link_gun", 2000.0, 2100.0),
        PickupSpot("ammo", None, 3970.1, 100.0),
    ),
)
INDEX_ARENAS = {"default": default_config().arena, "straddle": STRADDLE_ARENA}
# A pit whose bounding box rounds by far more than a cell; Arena rejects it.
FAR_PIT = Pit(-1e20, 2000.0, 1e20)


# World.tick's pit and pickup phases before the proximity index, testing
# every pit and pickup against every living agent: the reference.


def full_scan_pits(world):
    pit_discs = tuple((p.x, p.y, p.radius * p.radius) for p in world.arena.pits)
    for agent in world.agents:
        if agent.alive and agent.jump_t < 0.0:
            for px, py, r_sq in pit_discs:
                if (agent.x - px) ** 2 + (agent.y - py) ** 2 <= r_sq:
                    agent.pit_dead = True
                    agent.alive = False
                    break


def full_scan_pickups(world, _, dt, events):
    living = [agent for agent in world.agents if agent.alive]
    rl_living = living[:1] if world.agents[RL_AGENT_ID].alive else []
    for pickup, sx, sy, weapon_spot in world.pickups:
        if not pickup.timer <= 0.0:
            pickup.timer -= dt
            continue
        for agent in rl_living if weapon_spot else living:
            if (agent.x - sx) ** 2 + (agent.y - sy) ** 2 <= 60.0 ** 2:
                world._collect(agent, pickup, events)
                break


FULL_SCAN = (full_scan_pits, full_scan_pickups)
INDEXED = (World._pit_deaths, World._pickups)


def features(arena):
    """(x, y, reach) of each pit and pickup spot."""
    return [(p.x, p.y, p.radius) for p in arena.pits] + [
        (s.x, s.y, PICKUP_RADIUS) for s in arena.pickups
    ]


@st.composite
def standing_points(draw, arena):
    """Points where an agent can stand: anywhere, on cell edges, within a
    pit or a pickup's reach and on its rim, each nudged by up to two ulps."""
    lo, hi = CYLINDER_RADIUS, arena.size - CYLINDER_RADIUS
    anywhere = st.floats(lo, hi)
    cell, _ = arena.proximity
    kind = draw(st.sampled_from(["free", "cell-edge", "inside", "rim"]))
    if kind == "free":
        x, y = draw(anywhere), draw(anywhere)
    elif kind == "cell-edge":
        edge = st.integers(0, INDEX_CELLS).map(lambda k: k * cell)
        x, y = draw(st.one_of(edge, anywhere)), draw(edge)
        if draw(st.booleans()):
            x, y = y, x
    elif kind == "inside":
        cx, cy, r = draw(st.sampled_from(features(arena)))
        angle, frac = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 1.0))
        x, y = cx + frac * r * math.cos(angle), cy + frac * r * math.sin(angle)
    else:
        cx, cy, r = draw(st.sampled_from(features(arena)))
        side = draw(st.sampled_from(["left", "right", "below", "above", "round"]))
        if side == "round":
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            x, y = cx + r * math.cos(angle), cy + r * math.sin(angle)
        else:
            x = {"left": cx - r, "right": cx + r}.get(side, cx)
            y = {"below": cy - r, "above": cy + r}.get(side, cy)
    for _ in range(draw(st.integers(0, 2))):
        x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    for _ in range(draw(st.integers(0, 2))):
        y = math.nextafter(y, draw(st.sampled_from([-math.inf, math.inf])))
    return min(max(x, lo), hi), min(max(y, lo), hi)


def outcome_of(world, events):
    agents = [(a.alive, a.pit_dead, sorted(a.inventory.items())) for a in world.agents]
    timers = [struct.pack("<d", pickup.timer) for pickup, *_ in world.pickups]
    stats = (world.game.weapons_collected, world.game.ammo_collected)
    return agents, timers, stats, [format_event(e) for e in events]


def play_pits_and_pickups(arena, phases, positions, alive, grounded, killed, timers):
    """Set a world's agents and pickups as given and run its pit and pickup
    phases with `phases`; agents in `killed` die between the two, as firing
    can kill them.  Returns everything the phases can change."""
    world = world_in(arena)
    for agent, (x, y), up, ground in zip(world.agents, positions, alive, grounded):
        agent.x, agent.y, agent.alive = x, y, up
        agent.jump_t = -1.0 if ground else 0.1
    for (pickup, *_), timer in zip(world.pickups, timers):
        pickup.timer = timer
    pits, pickups = phases
    events = []
    near = pits(world)
    for agent, dies in zip(world.agents, killed):
        agent.alive = agent.alive and not dies
    pickups(world, near, world.dt, events)
    return outcome_of(world, events)


def reached(arena, x, y):
    """The pits and pickup positions whose tests pass at (x, y), by full scan."""
    pits = [
        (p.x, p.y, p.radius * p.radius) for p in arena.pits
        if (x - p.x) ** 2 + (y - p.y) ** 2 <= p.radius * p.radius
    ]
    spots = [
        i for i, s in enumerate(arena.pickups)
        if (x - s.x) ** 2 + (y - s.y) ** 2 <= 60.0 ** 2
    ]
    return pits, spots


def assert_index_lists(arena, x, y):
    """The index entry of (x, y)'s cell holds every pit and pickup whose test
    passes there, in arena order, so its first passing pit is the scan's."""
    cell, index = arena.proximity
    pits, spots = index.get((x // cell, y // cell), ((), ()))
    want_pits, want_spots = reached(arena, x, y)
    assert [d for d in pits if (x - d[0]) ** 2 + (y - d[1]) ** 2 <= d[2]] == want_pits
    assert [i for i in spots if i in want_spots] == want_spots


# Mostly available spots; the rest become available, or not, this tick.
timer_values = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0]),
    st.sampled_from([-1.0, -0.0, 0.0, 1.0 / 60.0, 1.0 / 30.0, 5.0, math.nan]),
)


def mostly(value):
    return st.sampled_from([value, value, value, not value])


class TestProximityIndex:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(INDEX_ARENAS)))
    def test_same_pit_deaths_and_pickups_as_the_full_scan(self, data, name):
        arena = INDEX_ARENAS[name]
        positions = [data.draw(standing_points(arena))]
        for _ in range(3):  # agents often share a spot, to see who collects
            share = data.draw(st.booleans())
            positions.append(
                data.draw(st.sampled_from(positions)) if share
                else data.draw(standing_points(arena))
            )
        state = (
            positions,
            data.draw(st.lists(mostly(True), min_size=4, max_size=4), label="alive"),
            data.draw(st.lists(st.booleans(), min_size=4, max_size=4), label="grounded"),
            data.draw(st.lists(mostly(False), min_size=4, max_size=4), label="killed"),
            data.draw(st.lists(timer_values, min_size=len(arena.pickups),
                               max_size=len(arena.pickups)), label="timers"),
        )
        for x, y in state[0]:
            assert_index_lists(arena, x, y)
        assert play_pits_and_pickups(arena, INDEXED, *state) == play_pits_and_pickups(
            arena, FULL_SCAN, *state
        )

    @pytest.mark.parametrize("x,y", [
        (200.0, 2000.0),  # the edge pit, one cell past its bounding box
        (math.nextafter(200.0, 0.0), 2000.0),
        (199.9, 3939.0), (199.9 - 60.0, 3975.0),  # the corner pickup's rim
        (2000.0, 2040.0), (2000.0, 2039.9),  # both pickups and the small pit
        (2050.0, 2039.9), (2110.0, 2099.9),
    ])
    def test_straddling_rims(self, x, y):
        assert_index_lists(STRADDLE_ARENA, x, y)
        state = ([(x, y)] * 4, [True] * 4, [True, False, True, False],
                 [False] * 4, [0.0] * len(STRADDLE_ARENA.pickups))
        assert play_pits_and_pickups(STRADDLE_ARENA, INDEXED, *state) == (
            play_pits_and_pickups(STRADDLE_ARENA, FULL_SCAN, *state)
        )

    def test_edge_pit_is_reached_one_cell_past_its_bounding_box(self):
        cell, _ = STRADDLE_ARENA.proximity
        assert (EDGE_PIT.x + EDGE_PIT.radius) // cell == 1.0 and 200.0 // cell == 2.0
        assert (200.0 - EDGE_PIT.x) ** 2 <= EDGE_PIT.radius * EDGE_PIT.radius
        assert reached(STRADDLE_ARENA, 200.0, 2000.0)[0]

    def test_far_pit_would_reach_cells_its_box_leaves_out(self):
        # Why Arena rejects FAR_PIT: its right edge rounds to 0.0, in cell 0
        # (cells are 500 wide at size 20000), yet its test passes at every
        # x < 8192, where x + 1e20 rounds to 1e20, far past the one-cell growth.
        cell = 20000.0 / INDEX_CELLS
        assert (FAR_PIT.x + FAR_PIT.radius) // cell == 0.0
        x = 8000.0
        assert x // cell == 16.0
        assert (x - FAR_PIT.x) ** 2 + (2000.0 - FAR_PIT.y) ** 2 <= FAR_PIT.radius ** 2

    def test_index_is_built_once_and_leaves_repr_and_equality_alone(self):
        arena = replace(default_config().arena)
        assert arena.proximity is arena.proximity
        assert arena == default_config().arena
        assert repr(arena) == repr(default_config().arena)


# ---------------------------------------------------------------------------
# One target geometry per agent per tick


class TestTargetGeometry:
    @settings(max_examples=300, deadline=None)
    @given(
        positions=st.lists(st.tuples(walkable, walkable), min_size=4, max_size=4),
        yaws=st.lists(st.floats(-180.0, 180.0), min_size=4, max_size=4),
        fov=st.sampled_from([35.0, 80.0, 180.0, 360.0]),
        coincide=st.booleans(),
    )
    def test_perception_returns_hypot_bearing_and_the_unit_vector(
        self, positions, yaws, fov, coincide
    ):
        world = world_in(OPEN_ARENA)
        if coincide:
            positions[1] = positions[0]
        for agent, (x, y), yaw in zip(world.agents, positions, yaws):
            agent.x, agent.y, agent.yaw = x, y, yaw
        for agent in world.agents:
            seen = world.nearest_visible(agent, fov)
            if seen is None:
                continue
            target, dist, bearing = seen
            dx, dy = target.x - agent.x, target.y - agent.y
            assert same(dist, math.hypot(dx, dy))
            assert same(bearing, geo.bearing_deg((agent.x, agent.y), (target.x, target.y)))
            ux, uy = unit_towards(agent, target, dist)
            nx, ny = geo.normalize2((dx, dy))
            assert same(ux, nx) and same(uy, ny)

    def test_coincident_target(self):
        world = world_in(OPEN_ARENA)
        for agent in world.agents:
            agent.x, agent.y, agent.yaw = 1000.0, 1000.0, 0.0
        target, dist, bearing = world.nearest_visible(world.agents[0], 35.0)
        assert (dist, bearing) == (0.0, 0.0)
        assert unit_towards(world.agents[0], target, dist) == geo.normalize2((0.0, 0.0))


# ---------------------------------------------------------------------------
# The frozen-policy loop, pinned


def fixed_policy(cfg):
    """A Q table set made from a fixed seed: about half of each category's
    states hold values, the rest read 0, so greedy play meets ties too."""
    rng = random.Random(11)
    tset = new_table_set(cfg.learner)
    for table in tset.tables.values():
        for state in range(N_STATES):
            if rng.random() < 0.5:
                for action in range(N_ACTIONS):
                    table.q[(state, action)] = rng.uniform(-3.0, 30.0)
    return tset


def frozen_lives(controller_cls, seeds, max_ticks=900):
    """Lives of a frozen policy as criterion 7 plays them: one fresh level-1
    World per life seed, capped at `max_ticks`."""
    cfg = default_config()
    policy = fixed_policy(cfg)
    lives = []
    for seed in seeds:
        rng = random.Random(seed)
        tset = new_table_set(cfg.learner)
        for cat in tset.tables:
            tset.tables[cat].q = dict(policy.tables[cat].q)
        world = World(
            cfg.arena, cfg.armory, cfg.physics, cfg.behavior, cfg.profiles[1],
            controller_cls(tset, cfg.armory, cfg.priority, rng), rng,
        )
        stats = None
        for _ in range(max_ticks):
            world.tick()
            if world.completed_life is not None:
                stats = world.completed_life
                break
        if stats is None:
            stats = world.finalize_truncated_life()
        lives.append((
            controller_cls.__name__, seed, world.tick_count, stats.hits,
            stats.misses, stats.reward, stats.duration_s, stats.cause,
        ))
    return lives


# The per-life numbers of FROZEN_SEEDS under each controller, pinned like
# test_cli.TestByteIdentity: a performance change must leave them as they are.
# Recorded with CPython on x86-64 Linux; the digest relies on the platform's
# libm for atan2, sin and cos.
FROZEN_SEEDS = range(300, 306)
FROZEN_LIVES_SHA256 = "2ab370c37722a6355fa731127becc850e38b8f4e990c8ad53c9399d3383fa139"


def test_each_controller_defines_its_own_decide():
    # The per-class decide counts of the benchmark's tracer wrap the function
    # defined on each class itself, not an inherited one.
    for cls in (RlShooterController, GreedyController, RandomController):
        assert "decide" in vars(cls), cls.__name__


@pytest.mark.parametrize("controller_cls", [GreedyController, RandomController])
def test_frozen_play_writes_no_table_state(controller_cls):
    cfg = default_config()
    tset = fixed_policy(cfg)
    for table in tset.tables.values():
        table.traces[(0, 0)] = 0.5
        table.visit_counts[(0, 0)] = 3
    before = [(dict(t.q), dict(t.traces), dict(t.visit_counts)) for t in tset.tables.values()]
    rng = random.Random(5)
    ctrl = controller_cls(tset, cfg.armory, cfg.priority, rng)
    world = World(
        cfg.arena, cfg.armory, cfg.physics, cfg.behavior, cfg.profiles[3], ctrl, rng,
    )
    deaths = 0
    for _ in range(GAME_TICKS):
        world.tick()
        if world.completed_life is not None:
            world.completed_life = None
            deaths += 1
    ctrl.on_game_end()
    assert deaths > 0 and tset.lives == deaths
    after = [(dict(t.q), dict(t.traces), dict(t.visit_counts)) for t in tset.tables.values()]
    assert after == before


def test_evaluate_policy_plays_the_pinned_loop():
    cfg = default_config()
    for controller_cls in (GreedyController, RandomController):
        policy = fixed_policy(cfg)
        rewards = evaluate_policy(cfg, policy, controller_cls, FROZEN_SEEDS)
        assert rewards == [life[5] for life in frozen_lives(controller_cls, FROZEN_SEEDS)]
        assert policy.lives == 0 and all(not t.visit_counts for t in policy.tables.values())


class TestFrozenPolicyPin:
    def test_greedy_and_random_lives_are_pinned(self):
        lives = frozen_lives(GreedyController, FROZEN_SEEDS)
        lives += frozen_lives(RandomController, FROZEN_SEEDS)
        assert {life[-1] for life in lives} - {"game-end"}, "no life ended in a death"
        text = "".join(" ".join(repr(v) for v in life) + "\n" for life in lives)
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_LIVES_SHA256
