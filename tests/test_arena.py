import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarsa_arena import geometry as geo
from sarsa_arena.arena import GreedyController, RandomController, RlShooterController, World
from sarsa_arena.config import load_config
from sarsa_arena.encoder import N_STATES, CombatObservation, encode
from sarsa_arena.harness import evaluate_policy
from sarsa_arena.learner import N_ACTIONS
from sarsa_arena.records import (
    Arena,
    AgentState,
    BehaviorParams,
    DamageEvent,
    FireCommand,
    INDEX_CELLS,
    KillEvent,
    MAX_ARENA_SIZE,
    OPPONENTS,
    OpponentProfile,
    PICKUP_RADIUS,
    PhysicsParams,
    PickupEvent,
    PickupSpot,
    Pit,
    RL_AGENT_ID,
    SpawnEvent,
    SuicideEvent,
    Wall,
    format_event,
    unit_towards,
)
from sarsa_arena.weapons import (
    ASSAULT_RIFLE,
    CYLINDER_HEIGHT,
    CYLINDER_RADIUS,
    WeaponCategory,
    field_types,
    new_table_set,
)


def make_world(seed=1, level=1, tset=None, cfg=None, controller_cls=RlShooterController):
    cfg = cfg or load_config()
    rng = random.Random(seed)
    tset = tset or new_table_set(cfg.learner)
    ctrl = controller_cls(tset, cfg.armory, cfg.priority, rng)
    world = World(
        cfg.arena, cfg.armory, cfg.physics, cfg.behavior,
        cfg.profiles[level], ctrl, rng,
    )
    return world, ctrl, tset


GAME_TICKS = 30 * 60  # one simulated minute
LAG = 0.1  # the bot's lock-on lag, [physics] aim_lag_s


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


def tick_checking_deaths(world):
    """Tick `world` once and check each death against the tick's damage
    events: nobody dies twice, a kill goes to the attacker of the victim's
    last damage and that damage was not self-inflicted, a self-splash
    suicide's last damage was, and a pit suicide took no damage.  No death
    record outlives the tick.  Returns the causes of the tick's deaths."""
    events = world.tick()
    last_damage = {e.victim: e for e in events if isinstance(e, DamageEvent)}
    deaths = [e for e in events if isinstance(e, (KillEvent, SuicideEvent))]
    assert len({e.victim for e in deaths}) == len(deaths)
    causes = set()
    for death in deaths:
        damage = last_damage.get(death.victim)
        if isinstance(death, KillEvent):
            assert (damage.attacker, damage.self_inflicted) == (death.killer, False)
            causes.add("killed")
            continue
        if death.cause == "self-splash":
            assert damage.self_inflicted
        else:
            assert death.cause == "pit" and damage is None
        causes.add(death.cause)
    assert all(agent.death is None for agent in world.agents)
    return causes


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
            world.kill_streak, game.max_kill_streak,
        ) == (kills, deaths_by_others, suicides, streak, max_streak)
        assert kills > 0 and deaths_by_others > 0

    # Every one of these games has kills and pit suicides.  The bot's rockets
    # kill it in none of them; TestShooting plays out that case.
    @pytest.mark.parametrize("level,seed", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
    def test_each_death_is_recorded_once_with_its_cause(self, level, seed):
        world, _, _ = make_world(seed=seed, level=level)
        causes = set()
        for _ in range(GAME_TICKS * 3):
            causes |= tick_checking_deaths(world)
        assert causes == {"killed", "pit"}

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


class TestGameBoundary:
    """World.play ends every life it starts, so a game hands the next one a
    controller with no pending interval, no reward carried over and no
    traces.  Half-minute level-5 games with the bot alive or dead at the
    whistle; the learner's seeds 6 and 7 are test_harness.TestWhistle's."""

    @pytest.mark.parametrize("controller_cls,seed,alive", [
        (RlShooterController, 1, True),
        (RlShooterController, 6, False),
        (RlShooterController, 7, False),
        (GreedyController, 1, True),
        (GreedyController, 8, False),
        (RandomController, 2, True),
        (RandomController, 1, False),
    ])
    def test_play_yields_every_life_and_leaves_the_controller_idle(
        self, controller_cls, seed, alive
    ):
        cfg = load_config()
        tset = new_table_set(cfg.learner) if controller_cls.learns else fixed_policy(cfg)
        world, ctrl, _ = make_world(
            seed=seed, level=5, tset=tset, cfg=cfg, controller_cls=controller_cls,
        )
        lives = list(world.play(GAME_TICKS // 2))
        assert world.agents[RL_AGENT_ID].alive == alive
        # Each death's life in turn, then the one cut off at the whistle if
        # the bot is alive then.
        deaths = world.game.deaths_by_others + world.game.suicides
        assert [life.cause == "game-end" for life in lives] == [False] * deaths + [True] * alive
        assert tset.lives == deaths
        assert ctrl.pending is None and ctrl.interval_shots == 0
        assert ctrl.life_reward == 0.0
        assert all(not t.traces for t in tset.tables.values())


def test_scripted_fire_shares_one_frozen_lock_on_per_target():
    world, _, _ = make_world(seed=3, level=5)
    profile = load_config().profiles[5]
    assert world.lock_on == tuple(
        FireCommand(ASSAULT_RIFLE, None, a.id, profile.aim_lag_s, profile.max_aim_error_deg)
        for a in world.agents
    )
    fired = set()
    for _ in range(GAME_TICKS):
        world.tick()
        for agent in world.agents[1:]:
            cmd = agent.fire_command
            if cmd is not None:
                assert cmd is world.lock_on[cmd.target_id]
                fired.add(cmd.target_id)
    assert RL_AGENT_ID in fired
    with pytest.raises(AttributeError):
        world.lock_on[RL_AGENT_ID].target_id = 1


def test_fire_commands_carry_the_shooters_aim_handicaps():
    # Opponents' lock-on commands carry their level's lag and aim error, 0.0
    # included, which _hitscan draws.
    cfg = load_config()
    for profile in [*cfg.profiles.values(), cfg.profiles[1]._replace(
            aim_lag_s=0.0, max_aim_error_deg=0.0)]:
        world, _, _ = make_world(cfg=cfg._replace(profiles={1: profile}))
        assert [(c.lag, c.spread) for c in world.lock_on] == (
            [(profile.aim_lag_s, profile.max_aim_error_deg)] * (OPPONENTS + 1)
        )
    # The bot's commands carry the lag they are given and its weapon's
    # spread, or None, no draw, for a weapon with none.
    ctrl, _, agent = make_controller()
    for weapon, spread in (("link_gun", None), ("shock_rifle", 1.5)):
        assert ctrl.armory[weapon].spread_deg == (spread or 0.0)
        agent.inventory = {weapon: 10}
        command = ctrl.decide(agent, *still_target(agent), 0.25)
        assert (command.weapon, command.lag, command.spread) == (weapon, 0.25, spread)
    # A lock-on trails its moving target by the command's lag, whoever fires
    # it: with 0.5 s the shot goes 100 uu behind the target, at the decoy.
    world, _, _ = make_world()
    world.agents[2].x, world.agents[2].y, world.agents[2].vy = 1500.0, 1000.0, 200.0
    world.agents[3].x, world.agents[3].y = 1500.0, 900.0
    for shooter, idle in ((1, RL_AGENT_ID), (RL_AGENT_ID, 1)):
        world.agents[shooter].x, world.agents[shooter].y = 1000.0, 1000.0
        world.agents[idle].x, world.agents[idle].y = 3000.0, 3000.0
        records = []
        command = world.lock_on[2]._replace(lag=0.5, spread=None)
        world._discharge(world.agents[shooter], command, records)
        assert [r[1] for r in records] == [3]


# make_world calls World as the benchmark does, with no roster argument.
def test_world_builds_the_bot_and_every_opponent_at_its_own_spawn():
    world, _, _ = make_world()
    assert [agent.id for agent in world.agents] == list(range(OPPONENTS + 1))
    assert [(agent.x, agent.y) for agent in world.agents] == list(
        world.arena.spawn_points[:OPPONENTS + 1]
    )


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
        prev = {a.id: (a.x, a.y) for a in world.agents}
        for _ in range(GAME_TICKS * 2):
            respawned = {
                e.agent for e in world.tick() if isinstance(e, SpawnEvent)
            }
            for a in world.agents:
                if not a.alive or a.id in respawned:
                    prev[a.id] = (a.x, a.y)
                    continue
                assert 0 <= a.x <= world.arena.size
                assert 0 <= a.y <= world.arena.size
                for w in world.arena.walls:
                    assert not geo.segments_intersect(
                        prev[a.id], (a.x, a.y), (w.x1, w.y1), (w.x2, w.y2)
                    )
                prev[a.id] = (a.x, a.y)

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
        hit = world._hitscan(shooter, weapon, (1200.0, 1000.0, 19.5), None, records)
        assert hit
        assert records == [(0, 1, 7, ASSAULT_RIFLE, False)]

    # A speed of inf casts a ray at once; any finite one launches a rocket.
    @pytest.mark.parametrize("speed,flying", [(math.inf, 0), (1e308, 1)])
    def test_infinite_speed_is_hitscan(self, speed, flying):
        world, _, _ = make_world(seed=1)
        shooter, target = world.agents[0], world.agents[1]
        shooter.x, shooter.y = 1000.0, 1000.0
        target.x, target.y = 1200.0, 1000.0
        world.armory["shock_rifle"] = world.armory["shock_rifle"]._replace(speed=speed)
        shooter.inventory["shock_rifle"] = 1
        records = []
        command = FireCommand("shock_rifle", (1200.0, 1000.0, 19.5), 1, LAG, None)
        world._discharge(shooter, command, records)
        assert len(world.projectiles) == flying
        assert [r[1] for r in records] == [1] * (1 - flying)

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
        hit = world._hitscan(shooter, weapon, (1400.0, 2000.0, 19.5), None, records)
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
        # An opponent's lock-on command draws the level's aim error even when
        # it is 0; the bot's command draws only a spread above 0.  Either way
        # one shot uses at most one draw of the world's stream.
        cfg = load_config()
        cfg = cfg._replace(profiles={1: cfg.profiles[1]._replace(max_aim_error_deg=0.0)})
        world, _, _ = make_world(seed=1, cfg=cfg)
        bot, opponent = world.agents[0], world.agents[1]
        bot.inventory["shock_rifle"] = 2
        aim = (2000.0, 400.0, 19.5)
        state = world.rng.getstate()
        world._discharge(bot, FireCommand("shock_rifle", aim, 1, LAG, None), [])
        assert world.rng.getstate() == state
        world._discharge(opponent, world.lock_on[RL_AGENT_ID], [])
        probe = random.Random()
        probe.setstate(state)
        probe.random()
        assert world.rng.getstate() == probe.getstate()
        world._discharge(bot, FireCommand("shock_rifle", aim, 1, LAG, 1.0), [])
        probe.random()
        assert world.rng.getstate() == probe.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        spread=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e308, math.inf, math.nan]), st.floats(0.0, 360.0),
        ),
        seed=st.integers(0, 2 ** 32),
    )
    def test_inlined_uniform_draws_the_stream_of_random_uniform(self, spread, seed):
        # _hitscan draws its spread as -s + (s - -s) * rng.random(), which is
        # what rng.uniform(-s, s) computes.
        inlined, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert same(-spread + (spread - -spread) * inlined.random(),
                        reference.uniform(-spread, spread))
        assert inlined.getstate() == reference.getstate()

    class FixedDraw(random.Random):
        """A stream whose every random() is `u`."""

        def __init__(self, u):
            super().__init__(0)
            self.u = u

        def random(self):
            return self.u

    # A draw u turns the shot by -spread + 2 * spread * u: with a 90 degree
    # spread, u = 0 hits the agent on the right, 0.5 the one aimed at and
    # nearly 1 the one on the left.
    @pytest.mark.parametrize("u,victim", [(0.0, 2), (0.5, 1), (1.0 - 2.0 ** -53, 3)])
    def test_spread_turns_the_shot_as_random_uniform_would(self, u, victim):
        world, _, _ = make_world(seed=1)
        spots = [(1000.0, 1000.0), (1500.0, 1000.0), (1000.0, 500.0), (1000.0, 1500.0)]
        for agent, (x, y) in zip(world.agents, spots):
            agent.x, agent.y = x, y
        world.rng = self.FixedDraw(u)
        shock = world.armory["shock_rifle"]
        records = []
        assert world._hitscan(world.agents[0], shock, (1500.0, 1000.0, 19.5), 90.0, records)
        assert [r[1] for r in records] == [victim]

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
        causes = set()
        for _ in range(5):
            causes |= tick_checking_deaths(world)
            if world.completed_life is not None:
                break
        assert causes == {"self-splash"}
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
        hit = world._hitscan(shooter, weapon, (1500.0, 1000.0, 19.5), weapon.spread_deg, records)
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
    cfg = load_config()
    tset = new_table_set(cfg.learner)
    ctrl = RlShooterController(tset, cfg.armory, cfg.priority, random.Random(0))
    agent = AgentState(0)
    agent.inventory = {ASSAULT_RIFLE: 1000}
    agent.x, agent.y = 1000.0, 1000.0
    return ctrl, tset, agent


def still_target(agent, dist=800.0):
    """A still opponent `dist` uu east of the agent at yaw -170, so that at
    800 uu it encodes, with an instant-hit weapon, to OBS's STATE."""
    target = AgentState(1)
    target.x, target.y, target.yaw = agent.x + dist, agent.y, -170.0
    return target, dist


class TestLearningPlumbing:
    def test_damage_reward_updates_q(self):
        ctrl, tset, agent = make_controller()
        command = ctrl.decide(agent, *still_target(agent), LAG)
        cat, s, a = ctrl.pending
        assert cat is WeaponCategory.MACHINE_GUN and s == STATE
        assert (command.weapon, command.target_id) == (ASSAULT_RIFLE, 1)
        ctrl.on_shot()
        ctrl.on_damage_dealt(14.0)
        ctrl.decide(agent, *still_target(agent), LAG)
        # Fresh table: delta = 14 + gamma*0 - 0, so Q(s,a) = alpha * 14.
        assert tset.tables[cat].value(s, a) == pytest.approx(0.7 * 14.0)
        assert ctrl.life_reward == pytest.approx(14.0)

    def test_zero_damage_shot_costs_one(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, *still_target(agent), LAG)
        cat, s, a = ctrl.pending
        ctrl.on_shot()
        ctrl.decide(agent, *still_target(agent), LAG)
        assert tset.tables[cat].value(s, a) == pytest.approx(-0.7)
        assert ctrl.life_reward == pytest.approx(-1.0)

    def test_silent_interval_leaves_q_untouched(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, *still_target(agent), LAG)
        ctrl.decide(agent, *still_target(agent), LAG)  # no shot fired between
        assert all(not t.q for t in tset.tables.values())
        assert ctrl.life_reward == 0.0

    def test_death_triggers_terminal_update_and_life_bookkeeping(self):
        ctrl, tset, agent = make_controller()
        ctrl.decide(agent, *still_target(agent), LAG)
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
        ctrl.decide(agent, *still_target(agent), LAG)  # medium: machine gun
        mg_cat, s, a = ctrl.pending
        ctrl.on_shot()
        ctrl.on_damage_dealt(10.0)
        ctrl.decide(agent, *still_target(agent, 300.0), LAG)  # close: flak cannon
        new_cat, _, _ = ctrl.pending
        assert mg_cat is WeaponCategory.MACHINE_GUN
        assert new_cat is WeaponCategory.CLOSE_RANGE
        assert tset.tables[mg_cat].value(s, a) == pytest.approx(0.7 * 10.0)
        # Credit must not leak across the category switch.
        assert not tset.tables[mg_cat].traces


M = MAX_ARENA_SIZE
PAST_M = math.nextafter(M, math.inf)
# Changes to the default arena at each bound's edge, which Arena accepts:
# the size, wall ends at 0 and at the size, and pit and pickup coordinates
# and a pit radius at +-M.  One ulp past each is rejected below.
AT_THE_BOUNDS = [
    {"size": M},
    {"walls": (Wall(0.0, 1400.0, 1200.0, 0.0), Wall(4000.0, 2600.0, 2800.0, 4000.0))},
    {"pits": (Pit(M, 2000.0, 100.0), Pit(-M, -M, 100.0), Pit(2000.0, -M, M))},
    {"pickups": (PickupSpot("ammo", None, M, 600.0),
                 PickupSpot("weapon", "shock_rifle", -M, -M))},
]


class TestArenaValidation:
    def test_spawn_in_pit_rejected(self):
        with pytest.raises(ValueError):
            Arena(
                size=1000.0,
                walls=(),
                pits=(Pit(100, 100, 60),),
                spawn_points=((100, 100), (900, 100), (100, 900), (900, 900)),
                pickups=(),
            ).check()

    # One spawn point for the bot and one for each opponent.
    def test_too_few_spawns_rejected(self):
        points = tuple((100.0 * (i + 1), 100.0) for i in range(OPPONENTS + 1))
        Arena(size=1000.0, walls=(), pits=(), spawn_points=points, pickups=()).check()
        for few in (points[1:], ((1, 1),)):
            with pytest.raises(ValueError, match="^arena needs at least 4 spawn points$"):
                Arena(size=1000.0, walls=(), pits=(), spawn_points=few, pickups=()).check()

    # A 1e200-wide arena once ended in an OverflowError traceback from the
    # spawn-in-pit test.
    @pytest.mark.parametrize(
        "size", [30.0, math.nextafter(MAX_ARENA_SIZE, math.inf), 1e200, math.inf, math.nan]
    )
    def test_arena_narrower_than_an_agent_or_infinite_rejected(self, size):
        with pytest.raises(ValueError):
            Arena(
                size=size, walls=(), pits=(),
                spawn_points=((10, 10), (20, 10), (10, 20), (20, 20)), pickups=(),
            ).check()

    @pytest.mark.parametrize("pit", [
        Pit(math.nan, 2000.0, 200.0),
        Pit(2000.0, math.inf, 200.0),
        Pit(2000.0, 2000.0, -200.0),
        Pit(2000.0, 2000.0, math.nan),
        Pit(2000.0, 2000.0, math.inf),
        Pit(1e308, 2000.0, 1e308),  # finite, but its bounding box is not
        # Far past MAX_ARENA_SIZE, where one rounding step at |centre| +
        # radius is wider than a cell: see FAR_PIT below.
        Pit(-1e20, 2000.0, 1e20),
        Pit(PAST_M, 2000.0, 100.0),
        Pit(2000.0, -PAST_M, 100.0),
        Pit(2000.0, -M, PAST_M),
    ])
    def test_pit_needs_a_bounded_centre_and_radius_at_least_zero(self, pit):
        with pytest.raises(ValueError, match="pit"):
            load_config().arena._replace(size=20000.0, pits=(pit,)).check()

    @pytest.mark.parametrize("change", AT_THE_BOUNDS, ids=lambda change: next(iter(change)))
    def test_geometry_at_its_bounds_accepted(self, change):
        arena = load_config().arena._replace(**change)
        arena.check()
        cell, _ = arena.proximity
        assert cell == change.get("size", 4000.0) / INDEX_CELLS

    def test_widest_arena_plays_with_its_farthest_pit(self):
        # The farthest pit admitted, |centre| + radius = 2 ** 21, its rim
        # passing x = 0 beside the bot, which stands in a cell that lists it.
        m = MAX_ARENA_SIZE
        far = Pit(-m, m / 2, m)
        arena = Arena(
            size=m, walls=(), pits=(far,),
            spawn_points=((CYLINDER_RADIUS, m / 2), (0.9 * m, 0.1 * m),
                          (0.1 * m, 0.9 * m), (0.9 * m, 0.9 * m)),
            pickups=(),
        )
        world = world_in(arena)  # which checks the arena
        cell, index = arena.proximity
        assert index[(0.0, (m / 2) // cell)][0] == ((-m, m / 2, m * m),)
        for _ in range(60):
            world.tick()
        assert all(agent.alive for agent in world.agents)

    def test_far_pickup_spot_rejected(self):
        with pytest.raises(ValueError, match="pickup"):
            load_config().arena._replace(pickups=(PickupSpot("ammo", None, 1e18, 600.0),)).check()

    @pytest.mark.parametrize("x,y", [
        (math.nan, 600.0), (600.0, math.inf), (-math.inf, 600.0), (-PAST_M, 600.0), (600.0, PAST_M),
    ])
    def test_pickup_spot_must_lie_within_the_bound(self, x, y):
        with pytest.raises(ValueError, match="pickup"):
            load_config().arena._replace(pickups=(PickupSpot("ammo", None, x, y),)).check()

    def test_zero_radius_pit_and_arena_edge_features_accepted(self):
        arena = load_config().arena._replace(
            pits=(Pit(2000.0, 2000.0, 0.0), Pit(-5000.0, 2000.0, 5100.0)),
            pickups=(PickupSpot("ammo", None, 0.0, 4000.0),),
        )
        arena.check()
        assert arena.proximity[1]

    @pytest.mark.parametrize("field", ["tick_hz", "decision_every"])
    def test_physics_rates_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            load_config().physics._replace(**{field: 0}).check()

    @pytest.mark.parametrize("field", [
        name for name, kind in field_types(PhysicsParams).items() if kind == "float"
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_physics_floats_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_config().physics._replace(**{field: value}).check()

    @pytest.mark.parametrize("field", [
        "dodge_radius", "waypoint_radius", "pit_avoid_margin",
        "fire_align_tolerance_deg", "engage_range", "scripted_stop_range",
    ])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_margins_radii_and_ranges_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            load_config().behavior._replace(**{field: value}).check()

    # Once a run gone quietly wrong: an infinite strafe period never ran
    # out, and a nan jump probability never let the bot jump.
    @pytest.mark.parametrize("field", BehaviorParams._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_behavior_floats_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            load_config().behavior._replace(**{field: value}).check()

    # A nan wall once blocked nothing; World.line_of_sight relies on walls
    # lying in [0, size].
    @pytest.mark.parametrize("wall", [
        Wall(1200.0, 1400.0, 1200.0, math.nan),
        Wall(math.inf, 1400.0, 1200.0, 2600.0),
        Wall(1200.0, -math.inf, 1200.0, 2600.0),
        Wall(-5e-324, 1400.0, 1200.0, 1400.0),
        Wall(1200.0, 1400.0, 1200.0, math.nextafter(4000.0, math.inf)),
    ])
    def test_wall_must_lie_in_the_arena(self, wall):
        with pytest.raises(ValueError, match="walls: Wall"):
            load_config().arena._replace(walls=(wall,)).check()

    @pytest.mark.parametrize("lo,hi", [(1.6, 1.5), (math.nan, 1.5), (0.5, math.nan)])
    def test_strafe_flip_min_above_max_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="strafe_flip_min_s"):
            load_config().behavior._replace(strafe_flip_min_s=lo, strafe_flip_max_s=hi).check()

    @pytest.mark.parametrize("field", ["fov_deg", "turn_rate_deg_s", "speed_fraction"])
    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_profile_angles_and_speed_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            load_config().profiles[1]._replace(**{field: value}).check()

    # Once a run gone quietly wrong: with a nan aim error or an infinite aim
    # lag the opponents never hit the bot.
    @pytest.mark.parametrize("field", [
        name for name, kind in field_types(OpponentProfile).items() if kind == "float"
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_profile_floats_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            load_config().profiles[1]._replace(**{field: value}).check()

    # Once a run gone quietly wrong: the bot spawned with no ammo, or an
    # ammo pickup took ammo away.
    @pytest.mark.parametrize("field", [
        "spawn_assault_ammo", "weapon_pickup_ammo", "ammo_pickup_amount",
    ])
    def test_physics_ammo_counts_must_not_be_negative(self, field):
        physics = load_config().physics
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -5"):
            physics._replace(**{field: -5}).check()
        physics._replace(**{field: 0}).check()

    # Once a run gone quietly wrong: with a negative field of view the bot
    # saw no opponent and never fired, and a negative speed ran it backwards.
    @pytest.mark.parametrize("field", ["base_speed", "rl_fov_deg", "rl_turn_rate_deg_s"])
    def test_bot_speed_fov_and_turn_rate_must_not_be_negative(self, field):
        physics = load_config().physics
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -5.0"):
            physics._replace(**{field: -5.0}).check()
        physics._replace(**{field: 0.0}).check()

    def test_default_arena_is_valid(self):
        world, _, _ = make_world()
        assert len(world.segments) == len(world.arena.walls) + 4

    def test_default_profiles_cover_levels(self):
        assert set(load_config().profiles) == {1, 3, 5}


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
    arena.check()
    cfg = load_config()
    rng = random.Random(0)
    ctrl = RlShooterController(new_table_set(cfg.learner), cfg.armory, cfg.priority, rng)
    return World(arena, cfg.armory, cfg.physics, cfg.behavior, cfg.profiles[1], ctrl, rng)


# Vertical walls running up and down, which line_of_sight tests by x alone,
# and two it must test as general walls: one shorter than 1 and a point.
VERTICAL_ARENA = Arena(
    size=4000.0,
    walls=(
        Wall(1200, 1400, 1200, 2600),
        Wall(2800, 2600, 2800, 1400),
        Wall(2000, 3000, 2000, 3000.5),
        Wall(3000, 500, 3000, 500),
    ),
    pits=(),
    spawn_points=((100, 100), (3900, 100), (100, 3900), (3900, 3900)),
    pickups=(),
)


def scaled_arena(arena, k):
    """`arena` with every length multiplied by `k`."""
    return Arena(
        size=arena.size * k,
        walls=tuple(Wall(w.x1 * k, w.y1 * k, w.x2 * k, w.y2 * k) for w in arena.walls),
        pits=tuple(Pit(p.x * k, p.y * k, p.radius * k) for p in arena.pits),
        spawn_points=tuple((x * k, y * k) for x, y in arena.spawn_points),
        pickups=tuple(s._replace(x=s.x * k, y=s.y * k) for s in arena.pickups),
    )


WORLDS = {
    "default": world_in(load_config().arena),
    "diagonal": world_in(DIAGONAL_ARENA),
    "vertical": world_in(VERTICAL_ARENA),
    # Near the widest arena accepted: 4000 * 256 = 1,024,000 uu.
    "scaled": world_in(scaled_arena(load_config().arena, 256)),
}


def critical_points(wall):
    """Points on, next to and either side of a vertical wall's line, at and
    around both of its ends and its middle."""
    wx = wall.x1
    xs = [wx - 150.0, math.nextafter(wx, 0.0), wx, math.nextafter(wx, math.inf), wx + 150.0]
    lo, hi = sorted((wall.y1, wall.y2))
    ys = [lo - 50.0, math.nextafter(lo, 0.0), lo, (lo + hi) / 2, hi,
          math.nextafter(hi, math.inf), hi + 50.0]
    return [(x, y) for x in xs for y in ys]


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
        x, y = draw(st.sampled_from([(w.x1, w.y1), (w.x2, w.y2)]))
        if kind == "near-end":
            for _ in range(draw(st.integers(0, 3))):
                x = math.nextafter(x, draw(st.sampled_from([0.0, size])))
            for _ in range(draw(st.integers(0, 3))):
                y = math.nextafter(y, draw(st.sampled_from([0.0, size])))
    return min(max(x, 1.0), size - 1.0), min(max(y, 1.0), size - 1.0)


def ulps_from(x, k):
    """`x` moved by `k` ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def assert_matches_reference(world, p, q):
    for a, b in ((p, q), (q, p)):
        expected = not any(
            geo.segments_intersect(a, b, s1, s2)
            for s1, s2 in world.segments
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

    def test_vertical_walls_are_told_apart(self):
        assert [w[6] for w in WORLDS["vertical"].walls] == [True, True, False, False]
        assert [w[6] for w in WORLDS["default"].walls] == [True, True]
        assert [w[6] for w in WORLDS["diagonal"].walls] == [False, False, False]
        assert [w[6] for w in WORLDS["scaled"].walls] == [True, True]

    def test_band_is_each_walls_extent_grown_by_the_margin(self):
        # The margin is 1e-9 times the arena's size, 4000.
        assert [w[7:] for w in WORLDS["default"].walls] == [(1400 - 4e-6, 2600 + 4e-6)] * 2
        assert [w[7:] for w in WORLDS["vertical"].walls[:2]] == [(1400 - 4e-6, 2600 + 4e-6)] * 2

    @pytest.mark.parametrize("name", ["default", "vertical", "scaled"])
    def test_band_edges(self, name):
        # Endpoints at a band edge and the wall's end beside it, 1-8 ulps
        # either side of each, and far past that end, on, beside and either
        # side of the wall's line: each pair lies across the line, so that
        # the x test fails, and beside the same end, where the band test
        # decides.
        world = WORLDS[name]
        reach = world.arena.size / 20
        for wx, wy1, _, wy2, _, _, vertical, lo, hi in world.walls:
            if not vertical:
                continue
            for edge, end, far in ((lo, min(wy1, wy2), lo - reach),
                                   (hi, max(wy1, wy2), hi + reach)):
                ys = [ulps_from(y, k) for y in (edge, end) for k in range(-8, 9)] + [far]
                left = [wx - reach, math.nextafter(wx, -math.inf), wx]
                right = [wx, math.nextafter(wx, math.inf), wx + reach]
                for p in [(x, y) for x in left for y in ys]:
                    for q in [(x, y) for x in right for y in ys]:
                        assert_matches_reference(world, p, q)

    @pytest.mark.parametrize("wall", VERTICAL_ARENA.walls[:2], ids=["up", "down"])
    def test_vertical_wall_on_its_line_and_at_its_ends(self, wall):
        points = critical_points(wall)
        for i, p in enumerate(points):
            for q in points[i:]:
                assert_matches_reference(WORLDS["vertical"], p, q)

    def test_crossing_reported_outside_the_bounding_box(self):
        # segments_intersect reports this crossing, one ulp past the wall's
        # lower end, although the segment's bounding box misses the wall's:
        # a bounding-box reject would disagree with it here.
        p = (149.66157272965086, 264.9437894059264)
        q = (1200.0000000000002, 1399.9999999999998)
        assert max(p[1], q[1]) < 1400.0
        assert geo.segments_intersect(p, q, (1200.0, 1400.0), (1200.0, 2600.0))
        assert_matches_reference(WORLDS["default"], p, q)

    def test_agents_stay_strictly_inside_a_huge_arena(self):
        # walk_max = size - CYLINDER_RADIUS, exact at every accepted size.
        world = WORLDS["scaled"]
        assert world.walk_max == world.arena.size - CYLINDER_RADIUS
        assert world.walk_max < world.arena.size
        coords = [CYLINDER_RADIUS, world.arena.size / 2, world.walk_max]
        points = [(x, y) for x in coords for y in coords]
        for i, p in enumerate(points):
            for q in points[i:]:
                assert_matches_reference(world, p, q)

    def test_collinear_with_a_wall(self):
        world = WORLDS["default"]
        x = 1200.0
        assert not world.line_of_sight(x, 1000.0, x, 1500.0)  # overlaps the wall
        assert not world.line_of_sight(x, 2600.0, x, 3000.0)  # touches its end
        assert world.line_of_sight(x, 2700.0, x, 3000.0)  # beyond its end
        assert world.line_of_sight(1000.0, 2000.0, 1100.0, 2000.0)
        assert not world.line_of_sight(1000.0, 2000.0, 1300.0, 2000.0)


# ---------------------------------------------------------------------------
# _hitscan's distance test against geo.ray_cylinder_t


def open_world(size):
    return world_in(Arena(
        size=size, walls=(), pits=(),
        spawn_points=tuple((size * a, size * b) for a in (0.25, 0.75) for b in (0.25, 0.75)),
        pickups=(),
    ))


# Arenas from just wider than an agent to the widest accepted, and the
# default one's walls.
HITSCAN_WORLDS = {
    f"{size:g}": open_world(size) for size in (40.0, 4000.0, 1e5, MAX_ARENA_SIZE)
}
HITSCAN_WORLDS["default"] = WORLDS["default"]


def hitscan_direction(origin, aim, spread_yaw):
    """The unit direction _hitscan fires from `origin` at `aim`, turned by
    `spread_yaw` radians as its spread turns it, or None where it does not
    fire."""
    dx, dy, dz = aim[0] - origin[0], aim[1] - origin[1], aim[2] - origin[2]
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0.0:
        return None
    dx, dy, dz = dx / norm, dy / norm, dz / norm
    if spread_yaw:
        c, s = math.cos(spread_yaw), math.sin(spread_yaw)
        dx, dy = dx * c - dy * s, dx * s + dy * c
    return dx, dy, dz


def assert_skip_is_a_miss(world, origin, direction, centre, base):
    """A centre that _hitscan's distance test, as written there, skips for a
    direction it builds (hitscan_direction) is one that ray_cylinder_t
    misses."""
    dx, dy = direction[0], direction[1]
    cross = dx * (centre[1] - origin[1]) - dy * (centre[0] - origin[0])
    if cross * cross > world.reach_sq:
        assert geo.ray_cylinder_t(
            origin, direction, centre, base, CYLINDER_RADIUS, CYLINDER_HEIGHT
        ) is None


def near_line(draw, world, o, d):
    """A point beside the 2-D line from `o` along `d` (not zero), at a few
    margins, ulps or 1/1024ths of CYLINDER_RADIUS from it, or inside it;
    clamped to where agents can stand."""
    size = world.arena.size
    step = draw(st.sampled_from([
        1e-9 * size, 2.0 ** -52 * size, 2.0 ** -48, CYLINDER_RADIUS / 1024,
    ]))
    off = CYLINDER_RADIUS + draw(st.floats(-8.0, 8.0)) * step
    along = draw(st.floats(-0.5, 1.5)) * size
    n = math.hypot(d[0], d[1])
    ux, uy = d[0] / n, d[1] / n
    x = o[0] + along * ux - off * uy
    y = o[1] + along * uy + off * ux
    lo, hi = CYLINDER_RADIUS, world.walk_max
    return min(max(x, lo), hi), min(max(y, lo), hi)


class TestHitscanDistanceTest:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(HITSCAN_WORLDS)))
    def test_skipped_centres_are_missed(self, data, name):
        # Shots as _hitscan builds them, turned by up to 45 degrees of
        # spread: near-tangent to the cylinder, vertical or nearly so, or
        # from an origin inside it; the origin anywhere from below its base
        # to above its top.
        world = HITSCAN_WORLDS[name]
        coord = st.floats(CYLINDER_RADIUS, world.walk_max)
        base = data.draw(st.sampled_from([0.0, 30.0]))
        o = (data.draw(coord), data.draw(coord), base + data.draw(st.floats(-10.0, 70.0)))
        kind = data.draw(st.sampled_from(["free", "tangent", "vertical", "inside"]))
        if kind == "vertical":
            # Aimed far above or below, off the vertical by nothing or by
            # far less than the height: a tiny or zero level part.
            nudge = st.sampled_from([0.0, 3.4e-12]) | st.floats(-1e-6, 1e-6)
            height = st.sampled_from([1e3, 1e12, 1e150, -1e3, -1e150])
            aim = (o[0] + data.draw(nudge), o[1] + data.draw(nudge), o[2] + data.draw(height))
        else:
            # A level shot (dz 0) meets the side of a far cylinder.
            rise = st.just(0.0) | st.floats(-200.0, 200.0)
            aim = (data.draw(coord), data.draw(coord), o[2] + data.draw(rise))
        spread = st.just(0.0) | st.floats(-45.0, 45.0)
        d = hitscan_direction(o, aim, math.radians(data.draw(spread)))
        if d is None:
            return
        if kind == "tangent" and d[:2] != (0.0, 0.0):
            centre = near_line(data.draw, world, o, d)
        elif kind in ("inside", "vertical"):
            offset = st.floats(-CYLINDER_RADIUS, CYLINDER_RADIUS)
            centre = (o[0] + data.draw(offset), o[1] + data.draw(offset))
        else:
            centre = (data.draw(coord), data.draw(coord))
        assert_skip_is_a_miss(world, o, d, centre, base)

    @pytest.mark.parametrize("name", sorted(HITSCAN_WORLDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_skipped_centres_beside_level_shots_are_missed(self, name, data):
        # Where ray_cylinder_t's side test rounds most: a level shot from far
        # off, passing a few margins or ulps from the cylinder's radius.
        world = HITSCAN_WORLDS[name]
        coord = st.floats(CYLINDER_RADIUS, world.walk_max)
        o = (data.draw(coord), data.draw(coord), data.draw(st.floats(0.0, CYLINDER_HEIGHT)))
        aim = (data.draw(coord), data.draw(coord), o[2])
        d = hitscan_direction(o, aim, math.radians(data.draw(st.floats(-45.0, 45.0))))
        if d is not None:
            assert_skip_is_a_miss(world, o, d, near_line(data.draw, world, o, d), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(HITSCAN_WORLDS)))
    def test_hitscan_equals_the_loop_without_the_test(self, data, name):
        # The same shot with reach_sq = inf, where the test skips nothing:
        # the same return, damage record and rng stream.
        world = HITSCAN_WORLDS[name]
        coord = st.floats(CYLINDER_RADIUS, world.walk_max)
        shooter = world.agents[data.draw(st.integers(0, 3))]
        shooter.x, shooter.y = data.draw(coord), data.draw(coord)
        aim = (data.draw(coord), data.draw(coord), data.draw(st.floats(-50.0, 150.0)))
        if data.draw(st.booleans()):
            aim = (shooter.x, shooter.y, aim[2])  # straight up or down
        d = (aim[0] - shooter.x, aim[1] - shooter.y)
        for other in world.agents:
            other.alive = data.draw(st.booleans()) or other is shooter
            other.z = data.draw(st.sampled_from([0.0, 40.0]))
            if other is shooter:
                continue
            where = data.draw(st.sampled_from(["near", "at", "free"]))
            if where == "near" and d != (0.0, 0.0):
                other.x, other.y = near_line(data.draw, world, (shooter.x, shooter.y), d)
            elif where == "at":
                other.x, other.y = shooter.x, shooter.y
            else:
                other.x, other.y = data.draw(coord), data.draw(coord)
        weapon = world.armory["shock_rifle"]
        spread = data.draw(st.sampled_from([None, 0.0, 3.0]))
        state = world.rng.getstate()
        filtered = []
        hit = world._hitscan(shooter, weapon, aim, spread, filtered)
        after = world.rng.getstate()
        world.rng.setstate(state)
        reach_sq, world.reach_sq = world.reach_sq, math.inf
        try:
            unfiltered = []
            assert world._hitscan(shooter, weapon, aim, spread, unfiltered) is hit
        finally:
            world.reach_sq = reach_sq
        assert filtered == unfiltered
        assert world.rng.getstate() == after

    def test_a_tangent_shot_across_the_widest_arena_needs_the_margin(self):
        # A level shot about 9e5 uu long passes the victim's centre at
        # cross**2 - R**2 of about 1.9e-5 uu**2, under the 27u*C**2 (about
        # 3e-3) by which ray_cylinder_t's discriminant rounds, and that
        # rounding finds a hit.  A test against R**2 alone would skip it.
        world = open_world(MAX_ARENA_SIZE)
        spots = [(25983.64469764539, 471327.26005571306), (913793.677759731, 763090.407949654),
                 (100.0, 100.0), (100.0, 200.0)]
        for agent, (x, y) in zip(world.agents, spots):
            agent.x, agent.y, agent.z = x, y, 0.0
        aim = (955932.1825806746, 776919.7425219431, 30.0)  # level: the eye is 30 uu up
        d = hitscan_direction((*spots[0], 30.0), aim, 0.0)
        cross = d[0] * (spots[1][1] - spots[0][1]) - d[1] * (spots[1][0] - spots[0][0])
        assert cross * cross > CYLINDER_RADIUS ** 2
        rifle = world.armory["shock_rifle"]
        records = []
        assert world._hitscan(world.agents[0], rifle, aim, None, records)
        assert [r[1] for r in records] == [1]

    def test_a_nearly_vertical_shot_skips_nothing(self):
        # Nearly straight up, from inside the victim: dx is about 3.4e-162,
        # and ray_cylinder_t hits at t = 0, so the distance test must skip
        # nothing.
        world = world_in(OPEN_ARENA)
        spots = [(1000.0, 1000.0), (1000.0, 1016.9), (3000.0, 3000.0), (3000.0, 1000.0)]
        for agent, (x, y) in zip(world.agents, spots):
            agent.x, agent.y, agent.z = x, y, 0.0
        rifle = world.armory["shock_rifle"]
        records = []
        aim = (1000.0 + 3.4e-12, 1000.0, 1e150)
        assert world._hitscan(world.agents[0], rifle, aim, None, records)
        assert [r[1] for r in records] == [1]

    def test_only_agents_near_the_shot_are_tested(self, monkeypatch):
        world = world_in(OPEN_ARENA)
        tested = []
        full_test = geo.ray_cylinder_t

        def spy(origin, direction, centre, *rest):
            tested.append(centre)
            return full_test(origin, direction, centre, *rest)

        monkeypatch.setattr(geo, "ray_cylinder_t", spy)
        # Aimed along y = 1000: 2 lies within the radius of the line, 3 just
        # beyond it, and 1, aimed at, on it.
        spots = [(1000.0, 1000.0), (3000.0, 1000.0), (2000.0, 1016.5), (2000.0, 1017.5)]
        for agent, (x, y) in zip(world.agents, spots):
            agent.x, agent.y = x, y
        records = []
        rifle = world.armory["shock_rifle"]
        assert world._hitscan(world.agents[0], rifle, (3000.0, 1000.0, 19.5), None, records)
        assert tested == [(3000.0, 1000.0), (2000.0, 1016.5)]
        assert [r[1] for r in records] == [2]


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
        world = world_in(load_config().arena)
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
INDEX_ARENAS = {"default": load_config().arena, "straddle": STRADDLE_ARENA}
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
                    agent.death = SuicideEvent(world.tick_count, agent.id, "pit")
                    agent.alive = False
                    break


def full_scan_pickups(world, _, dt, events):
    living = [agent for agent in world.agents if agent.alive]
    rl_living = living[:1] if world.agents[RL_AGENT_ID].alive else []
    timers = world.pickup_timers
    for i, (spot, sx, sy, weapon_spot) in enumerate(world.pickups):
        if not timers[i] <= 0.0:
            timers[i] -= dt
            continue
        for agent in rl_living if weapon_spot else living:
            if (agent.x - sx) ** 2 + (agent.y - sy) ** 2 <= 60.0 ** 2:
                world._collect(agent, spot, i, events)
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
    agents = [(a.alive, a.death, sorted(a.inventory.items())) for a in world.agents]
    timers = [struct.pack("<d", timer) for timer in world.pickup_timers]
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
    for i, timer in enumerate(timers):
        world.pickup_timers[i] = timer
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
        # Why Arena bounds pits: FAR_PIT's right edge rounds to 0.0, in cell 0
        # (cells are 500 wide at size 20000), yet its test passes at every
        # x < 8192, where x + 1e20 rounds to 1e20, far past the one-cell growth.
        cell = 20000.0 / INDEX_CELLS
        assert (FAR_PIT.x + FAR_PIT.radius) // cell == 0.0
        x = 8000.0
        assert x // cell == 16.0
        assert (x - FAR_PIT.x) ** 2 + (2000.0 - FAR_PIT.y) ** 2 <= FAR_PIT.radius ** 2

    def test_index_is_built_once_and_leaves_repr_and_equality_alone(self):
        arena = load_config().arena._replace()
        assert arena.proximity is arena.proximity
        # Keyed on the arena's value: each load_config() builds its own
        # Arena, and all of them share one index.
        assert arena.proximity is load_config().arena.proximity
        assert arena == load_config().arena
        assert repr(arena) == repr(load_config().arena)


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
    cfg = load_config()
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
    cfg = load_config()
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
    cfg = load_config()
    for controller_cls in (GreedyController, RandomController):
        policy = fixed_policy(cfg)
        lives = evaluate_policy(cfg, policy, controller_cls, FROZEN_SEEDS)
        pinned = frozen_lives(controller_cls, FROZEN_SEEDS)
        assert [(controller_cls.__name__, seed, round(life.duration_s * cfg.physics.tick_hz),
                 life.hits, life.misses, life.reward, life.duration_s, life.cause)
                for seed, life in zip(FROZEN_SEEDS, lives)] == pinned
        assert policy.lives == 0 and all(not t.visit_counts for t in policy.tables.values())


class TestFrozenPolicyPin:
    def test_greedy_and_random_lives_are_pinned(self):
        lives = frozen_lives(GreedyController, FROZEN_SEEDS)
        lives += frozen_lives(RandomController, FROZEN_SEEDS)
        assert {life[-1] for life in lives} - {"game-end"}, "no life ended in a death"
        text = "".join(" ".join(repr(v) for v in life) + "\n" for life in lives)
        assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_LIVES_SHA256
