"""Tabular Sarsa(lambda) learner: Q-values, eligibility traces and exploration.

One :class:`QTable` holds the 1296 x 5 state-action grid for a single weapon
category.  Entries are stored sparsely; anything never touched reads as 0.
"""

from __future__ import annotations

import math
import random
from typing import Any, NamedTuple

from .encoder import N_STATES

N_ACTIONS = 5

# Traces decay by gamma*lambda = 0.45 per step with the default parameters,
# so anything this small can no longer move a Q-value measurably.
TRACE_FLOOR = 1e-8

DEFAULT_BANDS = (
    (0, 0.50),
    (10_000, 0.40),
    (20_000, 0.30),
    (30_000, 0.20),
    (40_000, 0.10),
    (50_000, 0.05),
)


class ExplorationSchedule(NamedTuple):
    """Step schedule mapping completed lives to an exploration rate."""

    bands: tuple[tuple[int, float], ...] = DEFAULT_BANDS

    def check(self) -> None:
        if not self.bands:
            raise ValueError("schedule needs at least one band")
        if self.bands[0][0] != 0:
            raise ValueError("first band must start at 0 lives")
        bounds = [b for b, _ in self.bands]
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("band bounds must be strictly increasing")
        for _, eps in self.bands:
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"epsilon {eps} outside [0, 1]")


def epsilon_for_lives(schedule: ExplorationSchedule, lives: int) -> float:
    """Exploration rate for a bot that has completed `lives` lives."""
    if lives < 0:
        raise ValueError("lives must be non-negative")
    eps = schedule.bands[0][1]
    for bound, band_eps in schedule.bands:
        if lives >= bound:
            eps = band_eps
        else:
            break
    return eps


class LearnerConfig(NamedTuple):
    # [learner] holds alpha, gamma and lambda; the schedule's default serves
    # a restored snapshot, which stores none.
    alpha: float
    gamma: float
    lam: float
    schedule: ExplorationSchedule = ExplorationSchedule()

    def check(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda {self.lam} outside [0, 1]")


class QTable:
    """Sparse state-action value, trace and visit store for one weapon category."""

    def __init__(self) -> None:
        self.q: dict[tuple[int, int], float] = {}
        self.traces: dict[tuple[int, int], float] = {}
        self.visit_counts: dict[tuple[int, int], int] = {}

    def value(self, state: int, action: int) -> float:
        return self.q.get((state, action), 0.0)

    def visits(self, state: int, action: int) -> int:
        return self.visit_counts.get((state, action), 0)

    def row(self, state: int) -> list[float]:
        """The 5 Q-values of a state, in action order."""
        return [self.value(state, a) for a in range(N_ACTIONS)]

    def _check_pair(self, state: int, action: int) -> None:
        if not 0 <= state < N_STATES:
            raise ValueError(f"state {state} outside [0, {N_STATES})")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action {action} outside [0, {N_ACTIONS})")


def greedy_action(table: QTable, state: int, rng: random.Random) -> int:
    """An argmax action over the state's 5 Q-values, ties broken uniformly
    at random."""
    values = table.row(state)
    best = max(values)
    return rng.choice([a for a, v in enumerate(values) if v == best])


def select_action(
    table: QTable, state: int, epsilon: float, rng: random.Random
) -> tuple[int, bool]:
    """Epsilon-greedy selection with a preference for never-tried actions.

    Greedy is :func:`greedy_action`.  The exploratory branch picks uniformly
    among actions never visited in this state, falling back to all 5 once
    every action has been tried.  The chosen pair's visit count is
    incremented.
    """
    table._check_pair(state, 0)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")

    exploratory = rng.random() < epsilon
    if exploratory:
        unseen = [a for a in range(N_ACTIONS) if table.visits(state, a) == 0]
        pool = unseen if unseen else list(range(N_ACTIONS))
        action = rng.choice(pool)
    else:
        action = greedy_action(table, state, rng)

    key = (state, action)
    table.visit_counts[key] = table.visit_counts.get(key, 0) + 1
    return action, exploratory


def _apply_td(table: QTable, s: int, a: int, delta: float, cfg: LearnerConfig) -> None:
    table.traces[(s, a)] = 1.0
    decay = cfg.gamma * cfg.lam
    step = cfg.alpha * delta
    for pair, e in list(table.traces.items()):
        table.q[pair] = table.q.get(pair, 0.0) + step * e
        e *= decay
        if e < TRACE_FLOOR:
            del table.traces[pair]
        else:
            table.traces[pair] = e


def sarsa_update(
    table: QTable,
    s: int,
    a: int,
    r: float,
    s_next: int,
    a_next: int,
    cfg: LearnerConfig,
    next_value: float | None = None,
) -> float:
    """One Sarsa(lambda) step on `table`; returns the TD error.

    The TD error uses the pre-update values.  `next_value`, when given, is
    the bootstrap Q(s', a'), read from whichever table holds the next pair.
    """
    table._check_pair(s, a)
    table._check_pair(s_next, a_next)
    if not math.isfinite(r):
        raise ValueError(f"reward {r} is not finite")

    if next_value is None:
        next_value = table.value(s_next, a_next)
    delta = r + cfg.gamma * next_value - table.value(s, a)
    _apply_td(table, s, a, delta, cfg)
    return delta


def terminal_update(
    table: QTable, s: int, a: int, r: float, cfg: LearnerConfig
) -> float:
    """Final step of a life: bootstraps against a terminal value of 0.
    Returns the TD error."""
    table._check_pair(s, a)
    if not math.isfinite(r):
        raise ValueError(f"reward {r} is not finite")
    delta = r - table.value(s, a)
    _apply_td(table, s, a, delta, cfg)
    return delta


def begin_life(table: QTable) -> None:
    """Reset eligibility traces at a spawn; Q-values and visits persist."""
    table.traces.clear()


class QTableSet:
    """All per-category Q-tables of one learning run, plus the lives counter."""

    __slots__ = ("tables", "cfg", "lives")

    def __init__(self, tables: dict[Any, QTable], cfg: LearnerConfig, lives: int = 0) -> None:
        self.tables = tables
        self.cfg = cfg
        self.lives = lives

    def begin_life(self) -> None:
        for table in self.tables.values():
            begin_life(table)
