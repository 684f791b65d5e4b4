import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sarsa_arena import cli
from sarsa_arena.cli import main
from sarsa_arena.config import load_config
from sarsa_arena.harness import CampaignSettings, GameRecord, _header, load_games_csv
from sarsa_arena.records import MAX_ARENA_SIZE
from sarsa_arena.snapshots import read_snapshot

# The narrowest arena size that is too wide.
PAST_M = math.nextafter(MAX_ARENA_SIZE, math.inf)
# games.csv columns: the GameRecord fields, shoot_s spread over the armory.
GAMES_COLUMNS = len(_header(GameRecord, load_config().armory))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--level", "1", "--games", "1", "--minutes", "0.5",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    return out


def train_with_config(tmp_path, text):
    """Exit code of a short `train` run with `text` as its --config file."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    return main([
        "train", "--level", "1", "--games", "1", "--minutes", "0.1",
        "--config", str(cfg), "--out", str(tmp_path / "out"), "--no-plots",
    ])


class TestTrain:
    def test_outputs_exist(self, trained):
        level_dir = trained / "level1"
        for name in ("lives.csv", "games.csv", "snap_1_final.rlsq",
                     "kills.svg", "deaths.svg", "streaks.svg"):
            assert (level_dir / name).exists(), name

    def test_svg_is_wellformed(self, trained):
        import xml.etree.ElementTree as ET
        tree = ET.parse(trained / "level1" / "kills.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_invalid_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--level", "two"])
        assert exc.value.code == 2

    def test_level_without_a_section_is_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--level", "2", "--out", str(out), "--no-plots"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: level 2 has no [opponent:2] section; the known levels are 1, 3, 5\n"
        )
        assert not out.exists()

    def test_all_trains_every_level_of_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(
            "[opponent:2]\nspeed_fraction = 0.7\nstrafes = no\ndodges = no\n"
            "closes_distance = no\nmax_aim_error_deg = 2.0\nfov_deg = 40\n"
            "turn_rate_deg_s = 200\naim_lag_s = 0.1\ncombat_jump_prob_s = 0.0\n"
        )
        out = tmp_path / "out"
        assert main([
            "train", "--level", "all", "--games", "1", "--minutes", "0.05",
            "--config", str(cfg), "--out", str(out), "--no-plots",
        ]) == 0
        trained = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if " games -> " in line]
        assert trained == ["level 1", "level 2", "level 3", "level 5"]
        assert sorted(p.name for p in out.iterdir()) == ["level1", "level2", "level3", "level5"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "train", "--config", str(tmp_path / "nope.cfg"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_directory_is_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {tmp_path}:")
        assert "Traceback" not in err

    def test_config_not_utf8_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[physics]\n# \xff\ntick_hz = 30\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    def test_environment_names_no_config_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SARSA_ARENA_CONFIG", str(tmp_path / "nonexistent.cfg"))
        assert main([
            "train", "--level", "1", "--games", "1", "--minutes", "0.1",
            "--out", str(tmp_path / "out"), "--no-plots",
        ]) == 0

    @pytest.mark.parametrize("key", ["tick_hz", "decision_every"])
    def test_zero_physics_rate_is_config_error(self, key, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[physics]\n{key} = 0\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value", [
        ("behavior", "pit_avoid_margin", "-1"),
        ("behavior", "strafe_flip_min_s", "2.0"),
        ("opponent:1", "fov_deg", "nan"),
        # Once a traceback from the encoder, or a run gone quietly wrong.
        ("physics", "base_speed", "nan"),
        ("physics", "base_speed", "inf"),
        ("physics", "jump_height_uu", "nan"),
        ("physics", "rl_turn_rate_deg_s", "nan"),
        ("physics", "eye_height", "inf"),
        # Once a run gone quietly wrong: a strafe side that never flips, a bot
        # that never jumps, a rocket that never lands or that flies backwards.
        ("behavior", "strafe_flip_min_s", "-inf"),
        ("behavior", "strafe_flip_max_s", "inf"),
        ("behavior", "jump_prob_per_s", "nan"),
        ("weapon:rocket_launcher", "speed", "0"),
        ("weapon:rocket_launcher", "speed", "-900"),
        ("weapon:rocket_launcher", "speed", "nan"),
        ("weapon:shock_rifle", "aim_skew", "inf"),
        ("weapon:link_gun", "damage", "inf"),
        # Once a run gone quietly wrong: opponents that never hit, a rifle
        # that casts no ray, a bot that spawns without ammo.
        ("opponent:1", "max_aim_error_deg", "nan"),
        ("opponent:1", "aim_lag_s", "inf"),
        ("weapon:assault_rifle", "pellets", "0"),
        ("physics", "spawn_assault_ammo", "-5"),
        ("physics", "weapon_pickup_ammo", "-1"),
        ("physics", "ammo_pickup_amount", "-1"),
        # Once a run gone quietly wrong: a bot that never fired or ran
        # backwards, a rifle without scatter, a shield gun fired as hitscan
        # and Left and Right swapped.
        ("physics", "rl_fov_deg", "-5"),
        ("physics", "rl_turn_rate_deg_s", "-720"),
        ("physics", "base_speed", "-300"),
        ("weapon:assault_rifle", "spread_deg", "-2.5"),
        ("weapon:shield_gun", "melee_range", "-120"),
        ("weapon:shock_rifle", "aim_skew", "-60"),
        # Once a run gone quietly wrong: a reaction delay that leads a moving
        # target, an instant respawn or pickup and a jump that never leaves
        # the ground.
        ("opponent:1", "aim_lag_s", "-0.5"),
        ("physics", "aim_lag_s", "-0.5"),
        ("physics", "respawn_delay_s", "-3"),
        ("physics", "pickup_respawn_s", "-1"),
        ("physics", "jump_duration_s", "-0.7"),
        # Once an OverflowError traceback: no float holds the rate.
        pytest.param("physics", "tick_hz", "1" + "0" * 400, id="physics-tick_hz-1e400"),
    ])
    def test_out_of_range_value_is_config_error(self, section, key, value, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[{section}]\n{key} = {value}\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and key in err
        assert "Traceback" not in err

    # A key that became a constant: the Above step is weapons.ABOVE_STEP.  A
    # file written for it stops before anything is written.
    @pytest.mark.parametrize("section,key", [
        ("weapon:rocket_launcher", "above_step"),
    ])
    def test_retired_key_is_config_error(self, section, key, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[{section}]\n{key} = 3\n") == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: invalid configuration: [{section}] has unknown key '{key}'"
        )
        assert not (tmp_path / "out").exists()

    # Each once a traceback (`%` read as interpolation), a message without
    # the prefix (an unknown pickup weapon) or one that named no key.
    @pytest.mark.parametrize("text,message", [
        ("[weapon:shock_rifle]\ndamage = 45%\n", "[weapon:shock_rifle] damage: "),
        ("[physics]\ntick_hz = %(x)s\n", "[physics] tick_hz: "),
        ("[priority]\nclose = nosuch\n", "[priority] close names unknown weapon 'nosuch'"),
        ("[arena]\nweapon_pickups = nosuch 2000 600\n",
         "[arena] weapon_pickups names unknown weapon 'nosuch'"),
        ("[arena]\nwalls = 1200 1400 1200\n", "[arena] walls: "),
        ("[arena]\nsize = big\n", "[arena] size: "),
    ])
    def test_bad_value_is_one_named_config_error(self, text, message, tmp_path, capsys):
        assert train_with_config(tmp_path, text) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid configuration: {message}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    # A run's settings are the train flags alone: a file that still has the
    # [harness] section they once had stops before anything is written.
    @pytest.mark.parametrize("key", ["games", "opponents"])
    def test_retired_harness_section_is_config_error(self, key, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[harness]\n{key} = 3\n") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: invalid configuration: unknown section [harness]\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value,message", [
        ("pits = 2000 2000 -200", "pits: Pit(x=2000.0, y=2000.0, radius=-200.0)"),
        ("pits = 2000 2000 nan", "pits: Pit(x=2000.0, y=2000.0, radius=nan)"),
        ("pits = inf 2000 200", "pits: Pit(x=inf, y=2000.0, radius=200.0)"),
        ("ammo_pickups = 800 nan", "pickups: PickupSpot(kind='ammo', weapon=None, x=800.0, y=nan)"),
        # Once a wall that blocked nothing: no sight, movement, ray or splash.
        (
            "walls = 1200 1400 1200 nan; 2800 1400 2800 2600",
            "walls: Wall(x1=1200.0, y1=1400.0, x2=1200.0, y2=nan) needs coordinates in "
            "[0, 4000.0]",
        ),
        ("walls = 1200 1400 inf 2600", "walls: Wall(x1=1200.0, y1=1400.0, x2=inf, y2=2600.0)"),
        # A 1e200-wide arena once ended in an OverflowError traceback from the
        # spawn-in-pit test.
        (
            f"size = {PAST_M!r}",
            f"arena size {PAST_M!r} must be wider than an agent and at most 1048576",
        ),
        # One ulp past each bound that test_arena_geometry_at_its_bounds_is_accepted meets.
        ("walls = -5e-324 1400 1200 1400", "walls: Wall(x1=-5e-324, "),
        (f"walls = 1200 1400 1200 {math.nextafter(4000.0, math.inf)!r}",
         "walls: Wall(x1=1200.0, y1=1400.0, x2=1200.0, y2=4000.0000000000005) needs coordinates"),
        (f"pits = {PAST_M!r} 2000 100", f"pits: Pit(x={PAST_M!r}, "),
        (f"pits = 2000 {-PAST_M!r} 100", f"pits: Pit(x=2000.0, y={-PAST_M!r}, "),
        (f"pits = 2000 -1048576 {PAST_M!r}",
         f"pits: Pit(x=2000.0, y=-1048576.0, radius={PAST_M!r})"),
        (f"ammo_pickups = {-PAST_M!r} 600",
         f"pickups: PickupSpot(kind='ammo', weapon=None, x={-PAST_M!r}"),
        (f"weapon_pickups = shock_rifle 600 {PAST_M!r}",
         "pickups: PickupSpot(kind='weapon', weapon='shock_rifle', x=600.0, "),
        # Spawn points where movement cannot keep an agent, [17, 3983] here:
        # both runs once trained and exited 0.
        ("spawns = 0.5 400; 3600 400; 400 3600; 3600 3600",
         "spawn point outside the walkable region"),
        ("spawns = 400 400; 3600 400; 400 3600; 3600 3999.5",
         "spawn point outside the walkable region"),
    ])
    def test_arena_geometry_out_of_range_is_config_error(self, value, message, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[arena]\n{value}\n") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid configuration: {message}")
        assert "Traceback" not in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    # Each bound of the arena at its edge; one ulp past each is rejected above.
    @pytest.mark.parametrize("value", [
        "size = 1048576",
        "walls = 0 1400 1200 0; 4000 2600 2800 4000",
        "pits = 1048576 2000 100; -1048576 -1048576 100; 2000 -1048576 1048576",
        "ammo_pickups = 1048576 600\nweapon_pickups = shock_rifle -1048576 -1048576",
        "spawns = 17 17; 3983 3983; 400 3600; 3600 400",
    ])
    def test_arena_geometry_at_its_bounds_is_accepted(self, value, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[arena]\n{value}\n") == 0
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("[opponent:7]\nspeed_fraction = 0.5\n", "strafes"),
        ("[weapon:foo]\ncategory = Other\n", "damage"),
        ("[physics]\ntick_hzz = 60\n", "tick_hzz"),
    ])
    def test_missing_or_unknown_key_is_config_error(self, text, key, tmp_path, capsys):
        assert train_with_config(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and f"'{key}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,message", [
        (["--games", "0"], "games must be >= 1"),
        (["--minutes", "nan"], "minutes must be finite, got nan"),
        (["--minutes", "-1"], "minutes must be > 0, got -1.0"),
        (["--minutes", "inf"], "minutes must be finite, got inf"),
        (["--snapshot-every", "-1"], "snapshot_every must be >= 0"),
        # Once an OverflowError traceback: 1e308 minutes of ticks is inf.
        (["--minutes", "1e308"], "a game of 1e+308 minutes at 30 Hz has too many ticks"),
        # Once two game-end lives of 0.0 s and exit 0.
        (["--games", "2", "--minutes", "0.0001"],
         "a game of 0.0001 minutes at 30 Hz is shorter than one tick"),
    ])
    def test_campaign_flag_out_of_range_is_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--level", "1", "--out", str(out), "--no-plots"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()

    # The smallest game count, a game of 18 ticks and no periodic snapshot.
    def test_campaign_flags_at_their_edges_are_accepted(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "train", "--level", "1", "--games", "1", "--minutes", "0.01",
            "--snapshot-every", "0", "--out", str(out), "--no-plots",
        ]) == 0
        assert not capsys.readouterr().err
        assert sorted(p.name for p in (out / "level1").iterdir()) == [
            "games.csv", "lives.csv", "snap_1_final.rlsq",
        ]

    def test_train_without_run_flags_plays_30_games_of_3_minutes(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        def recording(sim, settings):
            runs.append(settings)
            raise Stop

        runs = []
        monkeypatch.setattr(cli, "run_campaign", recording)
        out = tmp_path / "out"
        with pytest.raises(Stop):
            main(["train", "--level", "1", "--seed", "4", "--out", str(out)])
        assert runs == [CampaignSettings(
            level=1, games=30, minutes=3.0, seed=4, out_dir=out / "level1", snapshot_every=50,
        )]

    # The default --level all: the first campaign's check stops the run
    # before any level's directory is made.
    def test_games_zero_at_every_level_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--games", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: games must be >= 1, got 0\n" and captured.out == ""
        assert not out.exists()

    def test_out_naming_a_file_is_error(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("not a directory\n")
        assert main([
            "train", "--level", "1", "--games", "1", "--minutes", "0.05",
            "--out", str(out), "--no-plots",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'level1'}: Not a directory")
        assert "Traceback" not in err


def tree_digest(root: Path) -> str:
    """sha256 over every file under `root`: relative path, length, bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# The simulator's outputs for SHORT_RUN, pinned.  A performance change must
# leave them byte-identical; a change that moves them on purpose updates the
# digest and says why.  Recorded with CPython on x86-64 Linux: the digest
# relies on the platform's libm for atan2, sin and cos.
SHORT_RUN = [
    "train", "--level", "all", "--games", "1", "--minutes", "1", "--seed", "5",
    "--events", "--no-plots",
]
SHORT_RUN_SHA256 = "3242ad41906a57678cb89a17e6c0a6bc901e738b89b12900cf2077be29c92b63"


class TestByteIdentity:
    def test_short_run_outputs_are_pinned(self, tmp_path, capsys):
        assert main(SHORT_RUN + ["--out", str(tmp_path)]) == 0
        assert tree_digest(tmp_path) == SHORT_RUN_SHA256

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict order of strings follows PYTHONHASHSEED, fixed per
        # interpreter, so each run is a fresh one.  Plots on.
        src = Path(__file__).resolve().parent.parent / "src"
        digests = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / hash_seed
            proc = subprocess.run(
                [sys.executable, "-m", "sarsa_arena.cli", "train", "--level", "5",
                 "--games", "2", "--minutes", "0.5", "--seed", "7", "--events",
                 "--snapshot-every", "1", "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]


class TestReport:
    def test_report_on_training_output(self, trained, capsys):
        assert main(["report", str(trained)]) == 0
        out = capsys.readouterr().out
        assert "level" in out and "K:D" in out

    def test_report_on_single_campaign_dir(self, trained, capsys):
        assert main(["report", str(trained / "level1")]) == 0

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 1
        assert "error" in capsys.readouterr().err

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "lives.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name,edit,message", [
        ("lives.csv", lambda rows: rows[:1], "cannot summarize an empty series"),
        ("games.csv", lambda rows: [rows[0], ["x" if c == "game" else v
                                               for c, v in zip(rows[0], rows[1])]],
         "invalid literal for int()"),
        ("games.csv", lambda rows: [[v for c, v in zip(rows[0], row) if c != "kills"]
                                    for row in rows], "KeyError: 'kills'"),
        # Ragged rows: one cell short, one cell long.
        ("games.csv", lambda rows: [rows[0], rows[1][:-1]],
         f"games.csv: line 2 has {GAMES_COLUMNS - 1} cells, the header {GAMES_COLUMNS}"),
        ("games.csv", lambda rows: [rows[0], rows[1] + ["0"]],
         f"games.csv: line 2 has {GAMES_COLUMNS + 1} cells, the header {GAMES_COLUMNS}"),
        ("lives.csv", lambda rows: [rows[0], rows[1] + ["0"]],
         "lives.csv: line 2 has 10 cells, the header 9"),
        # A cell longer than csv.field_size_limit(); once a csv.Error traceback.
        ("lives.csv", lambda rows: [rows[0], ["x" * 131073] + rows[1][1:]],
         "lives.csv: line 2: field larger than field limit (131072)"),
    ])
    def test_report_on_unreadable_campaign_data_is_error(
        self, name, edit, message, trained, tmp_path, capsys
    ):
        level_dir = tmp_path / "level1"
        shutil.copytree(trained / "level1", level_dir)
        with (level_dir / name).open(newline="", encoding="ascii") as f:
            rows = list(csv.reader(f))
        with (level_dir / name).open("w", newline="", encoding="ascii") as f:
            csv.writer(f).writerows(edit(rows))
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    # games.csv had a shoot_s_<weapon> column for bio_rifle, sniper_rifle and
    # flak_cannon_alt, weapons no game could hold, so always 0.0.  A run
    # written then still reads, and reports as it did.
    def test_report_reads_a_run_with_the_old_weapon_columns(self, trained, tmp_path, capsys):
        old = ["bio_rifle", "sniper_rifle", "flak_cannon_alt"]
        level_dir = tmp_path / "level1"
        shutil.copytree(trained / "level1", level_dir)
        with (level_dir / "games.csv").open(newline="", encoding="ascii") as f:
            rows = list(csv.reader(f))
        rows = [rows[0] + [f"shoot_s_{n}" for n in old]] + [row + ["0.0"] * 3 for row in rows[1:]]
        with (level_dir / "games.csv").open("w", newline="", encoding="ascii") as f:
            csv.writer(f).writerows(rows)
        # _load reads every shoot_s_* column into the dict.
        games = load_games_csv(trained / "level1" / "games.csv")
        assert games and load_games_csv(level_dir / "games.csv") == [
            game._replace(shoot_s={**game.shoot_s, **dict.fromkeys(old, 0.0)}) for game in games
        ]
        assert main(["report", str(trained)]) == 0
        today = capsys.readouterr().out
        assert main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().out == today

    def test_report_without_games_csv_is_error(self, trained, tmp_path, capsys):
        level_dir = tmp_path / "level1"
        shutil.copytree(trained / "level1", level_dir)
        (level_dir / "games.csv").unlink()
        assert main(["report", str(tmp_path)]) == 1
        assert "No such file" in capsys.readouterr().err


class TestInspect:
    def test_inspect_snapshot(self, trained, capsys):
        snap = trained / "level1" / "snap_1_final.rlsq"
        assert main(["inspect", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "lives completed" in out
        assert "MachineGun" in out

    def test_negative_top_is_usage_error(self, trained, capsys):
        snap = trained / "level1" / "snap_1_final.rlsq"
        with pytest.raises(SystemExit) as exc:
            main(["inspect", str(snap), "--top", "-2"])
        assert exc.value.code == 2
        assert "--top: must be >= 0, got -2" in capsys.readouterr().err

    def test_top_zero_prints_only_the_counts(self, trained, capsys):
        snap = trained / "level1" / "snap_1_final.rlsq"
        assert main(["inspect", str(snap), "--top", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 6
        assert all(line.endswith("learned state-action values") for line in lines[2:])

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "none.rlsq")]) == 1

    @pytest.mark.parametrize("make,message", [
        (lambda path: path.mkdir(), "cannot read {path}: Is a directory"),
        (lambda path: path.write_bytes(b"RLSQ 1\nlives 0\xe9\n"), "byte 14: not ASCII"),
    ])
    def test_inspect_unreadable_file(self, make, message, tmp_path, capsys):
        path = tmp_path / "snap.rlsq"
        make(path)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(path=path)}") and "Traceback" not in err

    def test_inspect_corrupt_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.rlsq"
        bad.write_text("not a snapshot\n")
        assert main(["inspect", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("body,line", [
        ("category InstantHit\nq 0 0 nan\n", 5),
        ("category InstantHit\ncategory InstantHit\n", 5),
        # Once reported as "0 learned state-action values": the last line won.
        ("category InstantHit\nq 5 1 2.5\nq 5 1 -7.0\nq 5 1 0.0\n", 6),
    ])
    def test_inspect_rejected_snapshot(self, body, line, tmp_path, capsys):
        bad = tmp_path / "bad.rlsq"
        bad.write_text("RLSQ 1\nlives 0\nparams 0.7 0.5 0.9\n" + body)
        assert main(["inspect", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}:") and "Traceback" not in err

    def test_snapshot_actually_restores(self, trained):
        tset = read_snapshot(trained / "level1" / "snap_1_final.rlsq")
        assert tset.lives >= 0
