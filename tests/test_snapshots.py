import random

import pytest

from sarsa_arena import snapshots
from sarsa_arena.learner import LearnerConfig
from sarsa_arena.snapshots import (
    SnapshotError,
    read_snapshot,
    restore,
    snapshot,
    write_snapshot,
)
from sarsa_arena.weapons import CATEGORY_ORDER, WeaponCategory, new_table_set

CFG = LearnerConfig(alpha=0.7, gamma=0.5, lam=0.9)


def test_empty_tables_round_trip():
    tset = new_table_set(CFG)
    doc = snapshot(tset)
    lines = doc.splitlines()
    assert lines[0] == "RLSQ 1"
    assert lines[1] == "lives 0"
    assert lines[2] == "params 0.7 0.5 0.9"
    assert [l for l in lines[3:]] == [f"category {c.value}" for c in CATEGORY_ORDER]

    back = restore(doc)
    assert back.lives == 0
    assert all(not t.q for t in back.tables.values())


def test_single_entry_round_trip():
    tset = new_table_set(CFG)
    tset.lives = 42
    tset.tables[WeaponCategory.INSTANT_HIT].q[(701, 3)] = 8.26
    doc = snapshot(tset)
    q_lines = [l for l in doc.splitlines() if l.startswith("q ")]
    assert q_lines == ["q 701 3 8.26"]

    back = restore(doc)
    assert back.lives == 42
    assert back.tables[WeaponCategory.INSTANT_HIT].q == {(701, 3): 8.26}


def test_bit_exact_round_trip_on_random_tables():
    rng = random.Random(123)
    tset = new_table_set(CFG)
    tset.lives = 60_000
    for cat in CATEGORY_ORDER:
        table = tset.tables[cat]
        for _ in range(500):
            key = (rng.randrange(1296), rng.randrange(5))
            table.q[key] = rng.uniform(-1e6, 1e6) * rng.choice((1e-9, 1.0, 1e9))
        table.traces[(0, 0)] = 0.45  # must not persist

    back = restore(snapshot(tset))
    assert back.lives == tset.lives
    for cat in CATEGORY_ORDER:
        original = {k: v for k, v in tset.tables[cat].q.items() if v != 0.0}
        assert back.tables[cat].q == original
        assert back.tables[cat].traces == {}


def test_params_round_trip():
    tset = new_table_set(LearnerConfig(alpha=0.3, gamma=0.99, lam=0.5))
    back = restore(snapshot(tset))
    assert (back.cfg.alpha, back.cfg.gamma, back.cfg.lam) == (0.3, 0.99, 0.5)


def test_file_round_trip(tmp_path):
    tset = new_table_set(CFG)
    tset.tables[WeaponCategory.OTHER].q[(5, 0)] = -0.7
    path = tmp_path / "snap.rlsq"
    write_snapshot(tset, path)
    back = read_snapshot(path)
    assert back.tables[WeaponCategory.OTHER].q == {(5, 0): -0.7}


VALID_HEAD = "RLSQ 1\nlives 0\nparams 0.7 0.5 0.9\n"


class TestRejections:
    def test_unknown_version(self):
        with pytest.raises(SnapshotError, match="version"):
            restore("RLSQ 2\nlives 0\nparams 0.7 0.5 0.9\n")

    def test_bad_magic(self):
        with pytest.raises(SnapshotError, match="header"):
            restore("QTAB 1\n")

    def test_state_out_of_range(self):
        doc = VALID_HEAD + "category InstantHit\nq 1296 0 1.0\n"
        with pytest.raises(SnapshotError, match="state index 1296 out of range"):
            restore(doc)

    def test_action_out_of_range(self):
        doc = VALID_HEAD + "category InstantHit\nq 0 5 1.0\n"
        with pytest.raises(SnapshotError, match="action index 5 out of range"):
            restore(doc)

    def test_malformed_q_line_reports_line_number(self):
        doc = VALID_HEAD + "category InstantHit\nq 0 zero 1.0\n"
        with pytest.raises(SnapshotError, match="line 5"):
            restore(doc)

    def test_unknown_category(self):
        doc = VALID_HEAD + "category RayGun\n"
        with pytest.raises(SnapshotError, match="category"):
            restore(doc)

    def test_truncated_document(self):
        with pytest.raises(SnapshotError, match="line 3"):
            restore("RLSQ 1\nlives 0\n")

    # LearnerConfig is a plain record: restore checks it where the document
    # becomes one.
    @pytest.mark.parametrize("params,message", [
        ("0 0.5 0.9", "alpha 0.0 outside (0, 1]"),
        ("0.7 1.5 0.9", "gamma 1.5 outside [0, 1]"),
        ("0.7 0.5 nan", "lambda nan outside [0, 1]"),
    ])
    def test_out_of_range_params_are_an_error_on_line_3(self, params, message):
        with pytest.raises(SnapshotError) as exc:
            restore(f"RLSQ 1\nlives 0\nparams {params}\n")
        assert str(exc.value) == f"line 3: {message}"

    def test_q_before_category(self):
        doc = VALID_HEAD + "q 0 0 1.0\n"
        with pytest.raises(SnapshotError, match="before any category"):
            restore(doc)

    def test_stray_line(self):
        doc = VALID_HEAD + "category InstantHit\nbogus\n"
        with pytest.raises(SnapshotError, match="unrecognized"):
            restore(doc)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_q_value(self, value):
        doc = VALID_HEAD + f"category InstantHit\nq 0 0 {value}\n"
        with pytest.raises(SnapshotError, match="line 5: q value .* is not finite"):
            restore(doc)

    def test_repeated_category_block(self):
        doc = VALID_HEAD + (
            "category InstantHit\nq 0 0 1.0\n"
            "category MachineGun\n"
            "category InstantHit\nq 0 0 2.0\n"
        )
        with pytest.raises(SnapshotError, match="line 7: category InstantHit appears twice"):
            restore(doc)


    def test_repeated_q_pair(self):
        doc = VALID_HEAD + (
            "category MachineGun\nq 5 1 1.0\n"
            "category InstantHit\nq 5 1 2.5\nq 5 2 1.0\nq 5 1 -7.0\nq 5 1 0.0\n"
        )
        with pytest.raises(SnapshotError, match="^line 9: q 5 1 appears twice in InstantHit$"):
            restore(doc)

    @pytest.mark.parametrize("doc,message", [
        ("RLSQ 1\n", "line 2: missing lives line"),
        ("RLSQ 1\nlives 0\n", "line 3: missing params line"),
        ("RLSQ 1\nlives\n", "line 2: malformed lives line 'lives'"),
        ("RLSQ 1\nlife 0\n", "line 2: malformed lives line 'life 0'"),
        ("RLSQ 1\nlives 0.5\n", "line 2: malformed lives line 'lives 0.5'"),
        ("RLSQ 1\nlives 1 2\n", "line 2: malformed lives line 'lives 1 2'"),
        ("RLSQ 1\nlives -1\n", "line 2: negative lives count -1"),
        ("RLSQ 1\nlives 0\nparams 0.7 0.5\n", "line 3: malformed params line 'params 0.7 0.5'"),
        ("RLSQ 1\nlives 0\nparam 0.7 0.5 0.9\n",
         "line 3: malformed params line 'param 0.7 0.5 0.9'"),
        ("RLSQ 1\nlives 0\nparams 0.7 x 0.9\n", "line 3: malformed params line 'params 0.7 x 0.9'"),
        ("RLSQ 1\nlives 0\nparams 0.7 0.5 0.9 1\n",
         "line 3: malformed params line 'params 0.7 0.5 0.9 1'"),
        ("RLSQ 1\nlives 0\nparams 0.7 2.0 0.9\n", "line 3: gamma"),
    ])
    def test_header_lines(self, doc, message):
        with pytest.raises(SnapshotError) as exc:
            restore(doc)
        assert str(exc.value).startswith(message)


class TestAtomicWrite:
    def tset(self, value):
        tset = new_table_set(CFG)
        tset.tables[WeaponCategory.OTHER].q[(5, 0)] = value
        return tset

    def test_writes_the_snapshot_bytes_and_nothing_else(self, tmp_path):
        path = tmp_path / "snap.rlsq"
        write_snapshot(self.tset(-0.7), path)
        write_snapshot(self.tset(2.5), path)  # replaces an existing file
        assert path.read_bytes() == snapshot(self.tset(2.5)).encode("ascii")
        assert [p.name for p in tmp_path.iterdir()] == ["snap.rlsq"]

    def test_failed_replace_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.rlsq"
        write_snapshot(self.tset(-0.7), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(snapshots.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot(self.tset(2.5), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.rlsq"]

    def test_failed_write_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.rlsq"
        write_snapshot(self.tset(-0.7), path)
        before = path.read_bytes()
        # Not ASCII: encoding fails after the temp file was opened.
        monkeypatch.setattr(snapshots, "snapshot", lambda tset: "RLSQ 1\né\n")
        with pytest.raises(UnicodeEncodeError):
            write_snapshot(self.tset(2.5), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.rlsq"]
