"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``sarsa_arena`` with
timing wrappers at the namespace where they are looked up when called (a
module attribute or a class attribute), and puts the originals back when the
trace ends.  Nothing under ``src/`` knows it is being traced.

Each wrapped call is a span: name, start, end and the span that was open when
it started.  A span's self time is its duration minus the durations of the
wrapped spans it directly contains.  Time spent in the wrappers of a child
call lands in the parent's self time, which is why the benchmark reports the
traced wall time over the untraced one as ``trace_overhead_ratio``.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from pathlib import Path

# Spans kept in memory per run.  A sweep repetition makes several million
# geometry calls, so keeping every span would cost hundreds of megabytes;
# the first SPAN_CAP spans (whole ticks with every layer in them) are kept
# and the rest are counted in the per-function totals only.
SPAN_CAP = 100_000


class FunctionStats:
    """Totals for one traced name within one repetition."""

    __slots__ = ("calls", "total_s", "self_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        # Useful outcomes counted by the name's observer: wall hits for
        # segments_intersect, clear sightlines for line_of_sight,
        # exploratory picks for select_action, bytes for write_snapshot.
        self.hits = 0


def _hit_if_true(stats, args, result):
    if result:
        stats.hits += 1


def _exploratory(stats, args, result):
    if result[1]:
        stats.hits += 1


def _snapshot_bytes(stats, args, result):
    stats.hits += os.path.getsize(args[1])


# (layer.function name, module, attribute path in the module, observer).
# Each function is wrapped where the program's callers look it up, so
# ``from .x import f`` call sites are patched in the importing module.
TARGETS = (
    ("geometry.segments_intersect", "sarsa_arena.geometry", "segments_intersect", _hit_if_true),
    ("geometry.ray_cylinder_t", "sarsa_arena.geometry", "ray_cylinder_t", None),
    ("geometry.ray_segment_t", "sarsa_arena.geometry", "ray_segment_t", None),
    ("arena.World", "sarsa_arena.arena", "World.__init__", None),
    ("arena.tick", "sarsa_arena.arena", "World.tick", None),
    ("arena.nearest_visible", "sarsa_arena.arena", "World.nearest_visible", None),
    ("arena.line_of_sight", "sarsa_arena.arena", "World.line_of_sight", _hit_if_true),
    ("arena.RlShooterController.decide", "sarsa_arena.arena", "RlShooterController.decide", None),
    ("arena.GreedyController.decide", "sarsa_arena.arena", "GreedyController.decide", None),
    ("arena.RandomController.decide", "sarsa_arena.arena", "RandomController.decide", None),
    ("encoder.encode", "sarsa_arena.arena", "encode", None),
    ("weapons.select_weapon", "sarsa_arena.arena", "select_weapon", None),
    ("weapons.resolve_aim", "sarsa_arena.arena", "resolve_aim", None),
    ("learner.select_action", "sarsa_arena.arena", "select_action", _exploratory),
    ("learner.sarsa_update", "sarsa_arena.arena", "sarsa_update", None),
    ("learner.terminal_update", "sarsa_arena.arena", "terminal_update", None),
    ("learner.QTable.row", "sarsa_arena.learner", "QTable.row", None),
    ("snapshots.write_snapshot", "sarsa_arena.harness", "write_snapshot", _snapshot_bytes),
    ("snapshots.read_snapshot", "sarsa_arena.cli", "read_snapshot", None),
    ("snapshots.read_snapshot", "sarsa_arena.snapshots", "read_snapshot", None),
    ("harness.run_campaign", "sarsa_arena.cli", "run_campaign", None),
    ("harness.run_campaign", "sarsa_arena.harness", "run_campaign", None),
    ("svg.render_campaign_plots", "sarsa_arena.cli", "render_campaign_plots", None),
    ("cli.main", "sarsa_arena.cli", "main", None),
    ("config.load_config", "sarsa_arena.cli", "load_config", None),
    ("config.load_config", "sarsa_arena.config", "load_config", None),
)

NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.stats = {name: FunctionStats() for name in NAMES}
        self.name_ids = {name: i for i, name in enumerate(NAMES)}
        # Open spans: [child_s, span_id] per frame.
        self.stack: list[list] = []
        self.next_id = 0
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.epoch = time.perf_counter()
        self._saved: list[tuple[object, str, object]] = []

    def reset_stats(self) -> None:
        for stats in self.stats.values():
            stats.__init__()

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call is recorded under ``name``."""
        stats = self.stats.setdefault(name, FunctionStats())
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent_id = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < SPAN_CAP:
                    spans.append((span_id, name_id, start, end, parent_id))
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_path, chain, observe in TARGETS:
            owner = importlib.import_module(module_path)
            *owners, attr = chain.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # vars() rather than getattr(): the wrapper must replace the
            # function defined on this very class, not an inherited one.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        names = {i: name for name, i in self.name_ids.items()}
        with Path(path).open("w", newline="", encoding="ascii") as f:
            out = csv.writer(f)
            out.writerow(("span", "name", "start_s", "end_s", "parent"))
            for span_id, name_id, start, end, parent_id in self.spans:
                out.writerow((
                    span_id, names[name_id], repr(start - self.epoch),
                    repr(end - self.epoch), parent_id,
                ))
