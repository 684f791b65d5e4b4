import csv
import hashlib
import shutil
from pathlib import Path

import pytest

from sarsa_arena.cli import main
from sarsa_arena.config import default_config
from sarsa_arena.harness import GameRecord, _header
from sarsa_arena.snapshots import read_snapshot

# games.csv columns: the GameRecord fields, shoot_s spread over the armory.
GAMES_COLUMNS = len(_header(GameRecord, default_config().armory))


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
            main(["train", "--level", "2"])
        assert exc.value.code == 2

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
        ("harness", "opponents", "0"),
        ("harness", "games", "0"),
        ("harness", "minutes", "nan"),
        ("harness", "minutes", "-1"),
        ("harness", "snapshot_every", "-1"),
    ])
    def test_out_of_range_value_is_config_error(self, section, key, value, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[{section}]\n{key} = {value}\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value,message", [
        ("pits = 2000 2000 -200", "pits: Pit(x=2000.0, y=2000.0, radius=-200.0)"),
        ("pits = 2000 2000 nan", "pits: Pit(x=2000.0, y=2000.0, radius=nan)"),
        ("pits = inf 2000 200", "pits: Pit(x=inf, y=2000.0, radius=200.0)"),
        ("ammo_pickups = 800 nan", "pickups: PickupSpot(kind='ammo', weapon=None, x=800.0, y=nan)"),
        # Once an OverflowError traceback from the spawn-in-pit test.
        (
            "size = 1e200\nspawns = 1e199 1e199; 9e199 1e199; 1e199 9e199; 9e199 9e199\n"
            "pits = 5e199 5e199 1e198",
            "arena size 1e+200 must be wider than an agent and at most 1e+100",
        ),
    ])
    def test_arena_geometry_out_of_range_is_config_error(self, value, message, tmp_path, capsys):
        assert train_with_config(tmp_path, f"[arena]\n{value}\n") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration: {message}")
        assert "Traceback" not in err

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
        (["--minutes", "nan"], "minutes must be finite and > 0"),
        (["--minutes", "-1"], "minutes must be finite and > 0"),
        (["--minutes", "inf"], "minutes must be finite and > 0"),
        (["--snapshot-every", "-1"], "snapshot_every must be >= 0"),
    ])
    def test_campaign_flag_out_of_range_is_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--level", "1", "--out", str(out), "--no-plots"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()


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
SHORT_RUN_SHA256 = "e0e1438432a32b6ceee7570ca0e87101ffbf8caa3ff576b679e6f8090b27d775"


class TestByteIdentity:
    def test_short_run_outputs_are_pinned(self, tmp_path, capsys):
        assert main(SHORT_RUN + ["--out", str(tmp_path)]) == 0
        assert tree_digest(tmp_path) == SHORT_RUN_SHA256


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

    @pytest.mark.parametrize("body", [
        "category InstantHit\nq 0 0 nan\n",
        "category InstantHit\ncategory InstantHit\n",
    ])
    def test_inspect_rejected_snapshot(self, body, tmp_path, capsys):
        bad = tmp_path / "bad.rlsq"
        bad.write_text("RLSQ 1\nlives 0\nparams 0.7 0.5 0.9\n" + body)
        assert main(["inspect", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 5:") and "Traceback" not in err

    def test_snapshot_actually_restores(self, trained):
        tset = read_snapshot(trained / "level1" / "snap_1_final.rlsq")
        assert tset.lives >= 0
