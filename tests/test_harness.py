import copy
import filecmp
import io
from pathlib import Path

import pytest

from sarsa_arena import harness
from sarsa_arena.arena import RL_AGENT_ID, GreedyController, format_event
from sarsa_arena.config import load_config
from sarsa_arena.harness import (
    Campaign,
    CampaignSettings,
    format_report,
    load_games_csv,
    evaluate_policy,
    load_lives_csv,
    run_campaign,
    summarize_level,
)
from sarsa_arena.snapshots import read_snapshot
from sarsa_arena.weapons import new_table_set

CFG = load_config()


def settings(tmp_path, **overrides) -> CampaignSettings:
    defaults = dict(
        level=1, games=2, minutes=1.0, seed=3,
        out_dir=tmp_path, snapshot_every=5,
    )
    defaults.update(overrides)
    return CampaignSettings(**defaults)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    result = run_campaign(CFG, settings(out))
    return result, out


class TestCampaignOutputs:
    def test_csv_round_trip(self, campaign):
        result, out = campaign
        assert load_lives_csv(out / "lives.csv") == result.lives
        assert load_games_csv(out / "games.csv") == result.games

    def test_one_game_record_per_game(self, campaign):
        result, _ = campaign
        assert [g.game for g in result.games] == [1, 2]

    def test_life_indices_are_sequential(self, campaign):
        result, _ = campaign
        assert [r.life for r in result.lives] == list(
            range(1, len(result.lives) + 1)
        )

    def test_death_accounting_identity(self, campaign):
        result, _ = campaign
        recorded_deaths = sum(
            1 for r in result.lives if r.death_cause != "game-end"
        )
        counted = sum(g.deaths_by_others + g.suicides for g in result.games)
        assert recorded_deaths == counted == result.tset.lives

    def test_suicide_causes_match_game_counts(self, campaign):
        result, _ = campaign
        by_cause = sum(
            1 for r in result.lives if r.death_cause.startswith("suicide-")
        )
        assert by_cause == sum(g.suicides for g in result.games)

    def test_final_snapshot_restores(self, campaign):
        result, out = campaign
        back = read_snapshot(out / "snap_1_final.rlsq")
        assert back.lives == result.tset.lives
        for cat, table in result.tset.tables.items():
            nonzero = {k: v for k, v in table.q.items() if v != 0.0}
            assert back.tables[cat].q == nonzero

    def test_periodic_snapshots_written_for_every_fifth_life(self, campaign):
        result, out = campaign
        expected = {
            out / f"snap_1_{n}.rlsq"
            for n in range(5, result.tset.lives + 1, 5)
        }
        assert expected == set(out.glob("snap_1_*.rlsq")) - {out / "snap_1_final.rlsq"}


class TestDeterminism:
    def test_identical_seeds_are_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            run_campaign(CFG, settings(tmp_path / d, games=1))
        for name in ("lives.csv", "games.csv", "snap_1_final.rlsq"):
            assert filecmp.cmp(
                tmp_path / "a" / name, tmp_path / "b" / name, shallow=False
            ), name

    def test_different_seed_changes_output(self, tmp_path):
        run_campaign(CFG, settings(tmp_path / "a", games=1))
        run_campaign(CFG, settings(tmp_path / "b", games=1, seed=4))
        assert not filecmp.cmp(
            tmp_path / "a" / "lives.csv", tmp_path / "b" / "lives.csv",
            shallow=False,
        )


class TestEventsLog:
    def test_event_stream_written_when_enabled(self, tmp_path):
        run_campaign(CFG, settings(tmp_path, games=1, record_events=True))
        lines = (tmp_path / "events.log").read_text().splitlines()
        assert lines
        kinds = {line.split()[1] for line in lines}
        assert "damage" in kinds and "spawn" in kinds

    def test_log_has_the_bytes_of_a_writelines_per_tick(self, tmp_path, monkeypatch):
        # The reference is the log as written before one write per tick with
        # events: writelines of each tick's formatted events, every tick.
        expected = io.BytesIO()
        real_tick = harness.World.tick
        ticks = empty = 0

        def recording_tick(world):
            nonlocal ticks, empty
            events = real_tick(world)
            ticks += 1
            empty += not events
            expected.writelines(
                (format_event(e) + "\n").encode("ascii") for e in events
            )
            return events

        monkeypatch.setattr(harness.World, "tick", recording_tick)
        run_campaign(CFG, settings(tmp_path, level=5, games=2, record_events=True))
        assert (tmp_path / "events.log").read_bytes() == expected.getvalue()
        assert 0 < empty < ticks  # both kinds of tick were written

    def test_log_closed_when_a_game_raises(self, tmp_path, monkeypatch):
        opened = []
        real_open = Path.open

        def recording_open(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            opened.append((path.name, f))
            return f

        real_tick = harness.World.tick
        ticks = 0

        def failing_tick(world):
            nonlocal ticks
            ticks += 1
            if ticks == 300:
                raise RuntimeError("game failed")
            return real_tick(world)

        monkeypatch.setattr(Path, "open", recording_open)
        monkeypatch.setattr(harness.World, "tick", failing_tick)
        with pytest.raises(RuntimeError, match="game failed"):
            run_campaign(CFG, settings(tmp_path, games=1, record_events=True))
        logs = [f for name, f in opened if name == "events.log"]
        assert len(logs) == 1 and logs[0].closed


class TestCarriedState:
    def test_a_campaign_continued_in_a_fresh_one_matches_the_unbroken_run(self, tmp_path):
        # Everything one game hands to the next lives in Campaign: its copy,
        # taken after game 2, plays games 3 and 4 as the unbroken run did.
        def campaign(name):
            return Campaign(CFG, settings(
                tmp_path / name, level=5, games=4, minutes=0.5, record_events=True,
            ))

        whole = run_campaign(CFG, campaign("whole").settings)
        first = campaign("first")
        with first.files:
            first.play_game()
            first.play_game()
        second = campaign("second")
        second.rng.setstate(first.rng.getstate())
        second.tset.tables = copy.deepcopy(first.tset.tables)
        second.tset.lives = first.tset.lives
        second.lives = list(first.lives)
        second.games = list(first.games)
        with second.files:
            second.play_game()
            second.play_game()

        assert 0 < len(first.lives) < len(second.lives)
        assert second.lives == whole.lives and second.games == whole.games
        for name in ("lives.csv", "games.csv"):
            head = (first.out / name).read_text().splitlines()
            tail = (second.out / name).read_text().splitlines()[1:]
            assert head + tail == (whole.out / name).read_text().splitlines(), name
        assert tail
        joined = (first.out / "events.log").read_bytes() + (second.out / "events.log").read_bytes()
        assert joined == (whole.out / "events.log").read_bytes()
        snapshots = {
            p.name: p.read_bytes() for c in (first, second) for p in c.out.glob("snap_*")
        }
        assert snapshots == {
            p.name: p.read_bytes() for p in whole.out.glob("snap_*") if "final" not in p.name
        }


class TestWhistle:
    # Seeds whose first level-5 game of 0.5 min ends with the bot dead.
    @pytest.mark.parametrize("seed", [6, 7])
    def test_a_bot_dead_at_the_whistle_leaves_the_controller_idle(
        self, seed, tmp_path, monkeypatch
    ):
        worlds = []
        real_init = harness.World.__init__

        def recording_init(world, *args, **kwargs):
            real_init(world, *args, **kwargs)
            worlds.append(world)

        monkeypatch.setattr(harness.World, "__init__", recording_init)
        result = run_campaign(
            CFG, settings(tmp_path, level=5, games=1, minutes=0.5, seed=seed)
        )
        assert not worlds[0].agents[RL_AGENT_ID].alive
        assert result.lives[-1].death_cause != "game-end"
        # on_death left nothing for the end of the game to drop.
        controller = worlds[0].controller
        assert controller.pending is None and controller.interval_shots == 0
        assert controller.life_reward == 0.0
        assert all(not t.traces for t in result.tset.tables.values())


class TestSnapshotCadence:
    def test_each_periodic_snapshot_follows_the_death_it_counts(self, tmp_path, monkeypatch):
        # Game 1 ends with the bot alive: its whistle life is recorded, but
        # the snapshot of the lives counted so far was written at the death.
        campaign = Campaign(CFG, settings(
            tmp_path, level=5, games=2, minutes=0.5, seed=1, snapshot_every=1,
        ))
        written = []
        monkeypatch.setattr(harness, "write_snapshot", lambda tset, path: written.append(
            (path.name, tset.lives, campaign.lives[-1])))
        with campaign.files:
            campaign.play_game()
            campaign.play_game()
        deaths = [r for r in campaign.lives if r.death_cause != "game-end"]
        assert [r.death_cause for r in campaign.lives if r.game == 1][-1] == "game-end"
        assert written == [
            (f"snap_5_{n}.rlsq", n, death) for n, death in enumerate(deaths, start=1)
        ]


class TestSettingsRanges:
    @pytest.mark.parametrize("key,value,message", [
        ("games", 0, "games must be >= 1"),
        ("minutes", float("nan"), "minutes must be finite, got nan"),
        ("minutes", 0.0, "minutes must be > 0, got 0.0"),
        ("snapshot_every", -1, "snapshot_every must be >= 0"),
    ])
    def test_out_of_range_campaign_raises_before_writing(self, tmp_path, key, value, message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            run_campaign(CFG, settings(out, **{key: value}))
        assert not out.exists()

    # CampaignSettings is a plain record: Campaign checks it before it makes
    # the output directory.
    def test_campaign_checks_its_settings_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^games must be >= 1, got 0$"):
            Campaign(CFG, settings(out, games=0))
        assert not out.exists()

    def test_unknown_level_raises_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="the known levels are 1, 3, 5$"):
            run_campaign(CFG, settings(out, level=2))
        assert not out.exists()

    def test_game_too_long_to_count_raises_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="too many ticks to count"):
            run_campaign(CFG, settings(out, minutes=1e308))
        assert not out.exists()

    # Once two game-end lives of 0.0 s: 0.0001 minutes is round(0.18) = 0 ticks.
    def test_game_shorter_than_one_tick_raises_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(
            ValueError, match="^a game of 0.0001 minutes at 30 Hz is shorter than one tick$"
        ):
            run_campaign(CFG, settings(out, minutes=0.0001))
        assert not out.exists()

    def test_the_shortest_game_is_one_tick(self, tmp_path):
        tick_minutes = 1 / (60 * CFG.physics.tick_hz)
        with pytest.raises(ValueError, match="shorter than one tick"):
            Campaign(CFG, settings(tmp_path / "half", minutes=tick_minutes / 2))
        assert not (tmp_path / "half").exists()
        result = run_campaign(CFG, settings(tmp_path / "one", games=1, minutes=tick_minutes))
        assert result.ticks_per_game == 1
        assert [(r.death_cause, r.duration_s) for r in result.lives] == [
            ("game-end", CFG.physics.dt)
        ]


class TestEvaluationCap:
    def at_hz(self, tick_hz):
        return CFG._replace(physics=CFG.physics._replace(tick_hz=tick_hz))

    # At 60 Hz, a cap of 900 ticks ended every life by 15 simulated seconds.
    def test_a_life_ends_at_thirty_seconds_whatever_the_tick_rate(self):
        sim = self.at_hz(60)
        killed, capped = evaluate_policy(
            sim, new_table_set(sim.learner), GreedyController, [0, 12]
        )
        assert killed.cause == "killed" and 15.0 < killed.duration_s < 30.0
        assert (capped.cause, capped.duration_s) == ("game-end", 30.0)

    def test_cap_too_large_to_count_raises(self):
        sim = self.at_hz(10 ** 308)
        with pytest.raises(ValueError, match="^a life of 30 s at 1000* Hz has too many ticks"):
            evaluate_policy(sim, new_table_set(sim.learner), GreedyController, [0])


class TestReport:
    def test_summary_totals(self, campaign):
        result, _ = campaign
        s = summarize_level(result.lives, result.games)
        assert s.level == 1
        assert s.games == 2
        assert s.kills == sum(g.kills for g in result.games)
        total_deaths = s.deaths_by_others + s.suicides
        if total_deaths:
            assert s.kd == pytest.approx(s.kills / total_deaths)

    def test_report_text_mentions_level(self, campaign):
        result, _ = campaign
        text = format_report([summarize_level(result.lives, result.games)])
        assert "level" in text and "\n" in text

    def test_oversize_cell_names_the_file_and_line(self, campaign, tmp_path):
        _, out = campaign
        rows = (out / "lives.csv").read_text(encoding="ascii").splitlines()
        rows[2] = "x" * 131073 + rows[2][rows[2].index(","):]
        path = tmp_path / "lives.csv"
        path.write_text("\n".join(rows) + "\n", encoding="ascii")
        with pytest.raises(ValueError, match=f"{path}: line 3: field larger than field limit"):
            load_lives_csv(path)

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_level([], [])
