"""Line-oriented snapshot documents for Q-table sets.

Format (text, bit-exact round trip on q values):

    RLSQ 1
    lives <count>
    params <alpha> <gamma> <lambda>
    category <name>
    q <state> <action> <value>
    ...

Only nonzero q entries are written, states ascending and actions ascending
within a state.  Each category appears once, each (state, action) pair at
most once within it, and every q value is finite.
Eligibility traces and visit counts are not persisted; restoring a snapshot
starts a fresh life.

A snapshot holds the policy only.  It stores no exploration schedule, so a
restored set carries `schedule=None`: a GreedyController or RandomController
plays it, and learning from it means copying its q values into a
`new_table_set` built from a config.  The periodic snapshots a campaign writes
mid-game (`snap_<level>_<lives>.rlsq`) are taken between lives but lack the
campaign's random stream and the game in progress, so training cannot
resume from one exactly.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .learner import LearnerConfig, N_ACTIONS, N_STATES, QTable, QTableSet
from .weapons import CATEGORY_ORDER, WeaponCategory

MAGIC = "RLSQ"
VERSION = 1


class SnapshotError(ValueError):
    """Raised for malformed or out-of-range snapshot documents."""


def snapshot(tset: QTableSet) -> str:
    lines = [f"{MAGIC} {VERSION}"]
    lines.append(f"lives {tset.lives}")
    cfg = tset.cfg
    lines.append(f"params {cfg.alpha!r} {cfg.gamma!r} {cfg.lam!r}")
    for cat in CATEGORY_ORDER:
        lines.append(f"category {cat.value}")
        table = tset.tables[cat]
        for (state, action) in sorted(table.q):
            value = table.q[(state, action)]
            if value != 0.0:
                lines.append(f"q {state} {action} {value!r}")
    return "\n".join(lines) + "\n"


def restore(text: str) -> QTableSet:
    lines = text.splitlines()
    if not lines:
        raise SnapshotError("line 1: empty document, expected header")

    header = lines[0].split()
    if len(header) != 2 or header[0] != MAGIC:
        raise SnapshotError(f"line 1: malformed header {lines[0]!r}")
    if header[1] != str(VERSION):
        raise SnapshotError(f"line 1: unsupported snapshot version {header[1]!r}")

    [lives] = _header_values(lines, 1, "lives", int)
    if lives < 0:
        raise SnapshotError(f"line 2: negative lives count {lives}")
    alpha, gamma, lam = _header_values(lines, 2, "params", float, float, float)
    cfg = LearnerConfig(alpha=alpha, gamma=gamma, lam=lam)
    try:
        cfg.check()
    except ValueError as exc:
        raise SnapshotError(f"line 3: {exc}") from exc

    by_name = {cat.value: cat for cat in WeaponCategory}
    tables = {cat: QTable() for cat in CATEGORY_ORDER}
    current: QTable | None = None
    seen: set[str] = set()
    for lineno, line in enumerate(lines[3:], start=4):
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] == "category":
            if len(fields) != 2 or fields[1] not in by_name:
                raise SnapshotError(f"line {lineno}: unknown category line {line!r}")
            if fields[1] in seen:
                raise SnapshotError(f"line {lineno}: category {fields[1]} appears twice")
            seen.add(fields[1])
            category, current = fields[1], tables[by_name[fields[1]]]
        elif fields[0] == "q":
            if current is None:
                raise SnapshotError(f"line {lineno}: q entry before any category")
            if len(fields) != 4:
                raise SnapshotError(f"line {lineno}: malformed q line {line!r}")
            try:
                state = int(fields[1])
                action = int(fields[2])
                value = float(fields[3])
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: malformed q line {line!r}") from exc
            if not math.isfinite(value):
                raise SnapshotError(f"line {lineno}: q value {fields[3]!r} is not finite")
            if not 0 <= state < N_STATES:
                raise SnapshotError(
                    f"line {lineno}: state index {state} out of range [0, {N_STATES})"
                )
            if not 0 <= action < N_ACTIONS:
                raise SnapshotError(
                    f"line {lineno}: action index {action} out of range [0, {N_ACTIONS})"
                )
            if (state, action) in current.q:
                raise SnapshotError(
                    f"line {lineno}: q {state} {action} appears twice in {category}"
                )
            current.q[(state, action)] = value
        else:
            raise SnapshotError(f"line {lineno}: unrecognized line {line!r}")

    return QTableSet(tables=tables, cfg=cfg, lives=lives)


def write_snapshot(tset: QTableSet, path: str | Path) -> None:
    """Write atomically: a temp file in the same directory, then os.replace,
    so `path` holds either its previous document or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(snapshot(tset), encoding="ascii")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_snapshot(path: str | Path) -> QTableSet:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"byte {exc.start}: not ASCII, so not a snapshot") from exc
    return restore(text)


def _header_values(lines: list[str], idx: int, key: str, *types) -> list:
    """The values of header line `idx`, `key` then one value of each type."""
    if idx >= len(lines):
        raise SnapshotError(f"line {idx + 1}: missing {key} line")
    fields = lines[idx].split()
    if len(fields) == len(types) + 1 and fields[0] == key:
        try:
            return [read(field) for read, field in zip(types, fields[1:])]
        except ValueError:
            pass
    raise SnapshotError(f"line {idx + 1}: malformed {key} line {lines[idx]!r}")
