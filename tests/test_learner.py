import math
import random

import pytest

from sarsa_arena.config import load_config
from sarsa_arena.learner import (
    ExplorationSchedule,
    LearnerConfig,
    QTable,
    begin_life,
    epsilon_for_lives,
    sarsa_update,
    select_action,
    terminal_update,
)

# The paper's alpha, gamma and lambda, which the bundled [learner] holds.
CFG = LearnerConfig(alpha=0.7, gamma=0.5, lam=0.9)


def test_default_config_matches_reference_parameters():
    assert load_config().learner == CFG


@pytest.mark.parametrize(
    "kwargs",
    [dict(alpha=0.0), dict(alpha=1.5), dict(gamma=-0.1), dict(gamma=1.1), dict(lam=2.0)],
)
def test_config_rejects_out_of_range_parameters(kwargs):
    with pytest.raises(ValueError):
        CFG._replace(**kwargs).check()


class TestExplorationSchedule:
    def test_default_bands(self):
        sched = ExplorationSchedule()
        assert sched.bands == (
            (0, 0.50),
            (10_000, 0.40),
            (20_000, 0.30),
            (30_000, 0.20),
            (40_000, 0.10),
            (50_000, 0.05),
        )

    @pytest.mark.parametrize(
        "lives,expected",
        [
            (0, 0.50),
            (9_999, 0.50),
            (10_000, 0.40),
            (25_000, 0.30),
            (30_000, 0.20),
            (49_999, 0.10),
            (50_000, 0.05),
            (1_000_000, 0.05),
        ],
    )
    def test_epsilon_for_lives(self, lives, expected):
        assert epsilon_for_lives(ExplorationSchedule(), lives) == expected

    def test_rejects_negative_lives(self):
        with pytest.raises(ValueError):
            epsilon_for_lives(ExplorationSchedule(), -1)

    def test_rejects_unordered_bands(self):
        with pytest.raises(ValueError):
            ExplorationSchedule(bands=((0, 0.5), (100, 0.4), (100, 0.3))).check()
        with pytest.raises(ValueError):
            ExplorationSchedule(bands=((5, 0.5),)).check()


class TestSelectAction:
    def test_greedy_unique_argmax(self):
        table = QTable()
        for a, v in enumerate((0.0, 3.0, 1.0, 0.0, 0.0)):
            if v:
                table.q[(0, a)] = v
        action, exploratory = select_action(table, 0, 0.0, random.Random(1))
        assert action == 1
        assert not exploratory

    def test_greedy_breaks_ties_uniformly(self):
        table = QTable()
        table.q[(0, 1)] = 5.0
        table.q[(0, 3)] = 5.0
        rng = random.Random(7)
        counts = [0] * 5
        for _ in range(20_000):
            table.visit_counts.clear()
            action, _ = select_action(table, 0, 0.0, rng)
            counts[action] += 1
        assert counts[0] == counts[2] == counts[4] == 0
        assert abs(counts[1] / 20_000 - 0.5) < 0.02

    def test_exploration_uniform_over_fresh_actions(self):
        table = QTable()
        rng = random.Random(42)
        counts = [0] * 5
        n = 100_000
        for _ in range(n):
            table.visit_counts.clear()
            action, exploratory = select_action(table, 17, 1.0, rng)
            assert exploratory
            counts[action] += 1
        # Chi-square against uniform, 4 dof; 18.47 is the 0.999 quantile.
        expected = n / 5
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 18.47
        for c in counts:
            assert abs(c / n - 0.2) < 0.02

    def test_exploration_prefers_unseen_actions(self):
        rng = random.Random(3)
        counts = {2: 0, 3: 0}
        for _ in range(10_000):
            table = QTable()
            for a in (0, 1, 4):
                table.visit_counts[(5, a)] = 1
            action, _ = select_action(table, 5, 1.0, rng)
            assert action in (2, 3)
            counts[action] += 1
        assert abs(counts[2] / 10_000 - 0.5) < 0.03

    def test_exploration_falls_back_to_all_actions(self):
        table = QTable()
        for a in range(5):
            table.visit_counts[(5, a)] = 1
        rng = random.Random(11)
        seen = {select_action(table, 5, 1.0, rng)[0] for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_visit_count_incremented(self):
        table = QTable()
        action, _ = select_action(table, 9, 0.0, random.Random(0))
        assert table.visits(9, action) == 1

    def test_greedy_always_attains_max(self):
        rng = random.Random(99)
        table = QTable()
        for _ in range(200):
            state = rng.randrange(1296)
            for a in range(5):
                table.q[(state, a)] = rng.uniform(-10, 10)
            action, _ = select_action(table, state, 0.0, rng)
            assert table.value(state, action) == max(table.row(state))


class TestSarsaUpdate:
    def test_single_step_hand_trace(self):
        table = QTable()
        cfg = CFG
        delta = sarsa_update(table, 0, 0, 10.0, 1, 1, cfg)
        assert delta == pytest.approx(10.0)
        assert table.value(0, 0) == pytest.approx(7.0)
        assert table.traces[(0, 0)] == pytest.approx(0.45)

    def test_miss_penalty_step(self):
        table = QTable()
        delta = sarsa_update(table, 0, 0, -1.0, 1, 1, CFG)
        assert delta == pytest.approx(-1.0)
        assert table.value(0, 0) == pytest.approx(-0.7)

    def test_trace_mediated_credit_over_two_steps(self):
        table = QTable()
        cfg = CFG
        sarsa_update(table, 0, 0, 10.0, 1, 1, cfg)
        delta = sarsa_update(table, 1, 1, 4.0, 2, 2, cfg)
        assert delta == pytest.approx(4.0)
        assert table.value(1, 1) == pytest.approx(2.8)
        assert table.value(0, 0) == pytest.approx(7.0 + 0.7 * 4.0 * 0.45)

    def test_delta_uses_pre_update_values(self):
        table = QTable()
        table.q[(2, 3)] = 4.0
        table.q[(5, 1)] = 6.0
        cfg = CFG
        delta = sarsa_update(table, 2, 3, 1.0, 5, 1, cfg)
        assert delta == pytest.approx(1.0 + 0.5 * 6.0 - 4.0)

    def test_zero_step_leaves_table_unchanged(self):
        table = QTable()
        sarsa_update(table, 0, 0, 0.0, 1, 1, CFG)
        assert all(v == 0.0 for v in table.q.values())

    def test_rejects_non_finite_reward(self):
        table = QTable()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sarsa_update(table, 0, 0, bad, 1, 1, CFG)

    def test_rejects_out_of_range_pairs(self):
        table = QTable()
        with pytest.raises(ValueError):
            sarsa_update(table, 1296, 0, 1.0, 0, 0, CFG)
        with pytest.raises(ValueError):
            sarsa_update(table, 0, 5, 1.0, 0, 0, CFG)

    def test_traces_stay_in_unit_interval_and_decay_geometrically(self):
        table = QTable()
        cfg = CFG
        rng = random.Random(5)
        for _ in range(500):
            s, a = rng.randrange(20), rng.randrange(5)
            sarsa_update(table, s, a, rng.uniform(-1, 50), rng.randrange(20), rng.randrange(5), cfg)
            assert all(0.0 <= e <= 1.0 for e in table.traces.values())
        # After k decay steps from 1, a trace equals (gamma*lambda)^k.
        table = QTable()
        sarsa_update(table, 0, 0, 0.0, 1, 1, cfg)
        for k in range(1, 10):
            assert table.traces[(0, 0)] == pytest.approx(0.45 ** k, rel=1e-12)
            sarsa_update(table, 1, 1, 0.0, 1, 1, cfg)


class TestBeginLife:
    def test_resets_traces_only(self):
        table = QTable()
        cfg = CFG
        sarsa_update(table, 3, 2, 8.0, 4, 1, cfg)
        select_action(table, 3, 0.0, random.Random(0))
        q_before = dict(table.q)
        visits_before = dict(table.visit_counts)
        begin_life(table)
        assert table.traces == {}
        assert table.q == q_before
        assert table.visit_counts == visits_before

    def test_idempotent_on_fresh_table(self):
        table = QTable()
        begin_life(table)
        assert table.q == {} and table.traces == {}

    def test_update_after_reset_matches_fresh_table(self):
        cfg = CFG
        dirty = QTable()
        sarsa_update(dirty, 9, 4, 3.0, 10, 2, cfg)
        begin_life(dirty)

        fresh = QTable()
        d1 = sarsa_update(fresh, 0, 0, 10.0, 1, 1, cfg)
        d2 = sarsa_update(dirty, 0, 0, 10.0, 1, 1, cfg)
        assert d1 == d2 == pytest.approx(10.0)
        assert dirty.value(0, 0) == fresh.value(0, 0) == pytest.approx(7.0)
        assert dirty.traces[(0, 0)] == fresh.traces[(0, 0)] == pytest.approx(0.45)


def value_iteration_chain(gamma: float) -> dict[tuple[int, int], float]:
    """Independent fixed-point oracle for the 5-state chain MDP."""
    n = 5
    v = [0.0] * n  # state 4 terminal, value 0

    def step(s: int, a: int) -> tuple[int, float]:
        if a == 1:  # right
            nxt = s + 1
            return nxt, 1.0 if nxt == 4 else 0.0
        if a == 0:  # left
            return max(s - 1, 0), 0.0
        return s, 0.0  # stay

    for _ in range(200):
        new_v = list(v)
        for s in range(4):
            new_v[s] = max(
                step(s, a)[1] + gamma * (0.0 if step(s, a)[0] == 4 else v[step(s, a)[0]])
                for a in range(5)
            )
        v = new_v

    q = {}
    for s in range(4):
        for a in range(5):
            nxt, r = step(s, a)
            q[(s, a)] = r + gamma * (0.0 if nxt == 4 else v[nxt])
    return q


def run_chain_sarsa(episodes: int = 5000, seed: int = 0) -> QTable:
    """Exploring-starts Sarsa(lambda) on the chain, epsilon annealed to 0."""
    cfg = CFG
    table = QTable()
    rng = random.Random(seed)

    def chain_step(s: int, a: int) -> tuple[int, float]:
        if a == 1:
            nxt = s + 1
            return nxt, 1.0 if nxt == 4 else 0.0
        if a == 0:
            return max(s - 1, 0), 0.0
        return s, 0.0

    anneal_start = episodes // 2
    greedy_start = 3 * episodes // 4
    for ep in range(episodes):
        if ep < anneal_start:
            eps = 0.3
        elif ep < greedy_start:
            eps = 0.3 * (greedy_start - ep) / (greedy_start - anneal_start)
        else:
            eps = 0.0
        begin_life(table)
        s = rng.randrange(4)
        a = rng.randrange(5)
        for _ in range(50):
            s_next, r = chain_step(s, a)
            if s_next == 4:
                terminal_update(table, s, a, r, cfg)
                break
            a_next, _ = select_action(table, s_next, eps, rng)
            sarsa_update(table, s, a, r, s_next, a_next, cfg)
            s, a = s_next, a_next
    return table


def test_chain_mdp_convergence_to_value_iteration():
    q_star = value_iteration_chain(0.5)
    table = run_chain_sarsa()
    max_err = max(abs(table.value(s, a) - q_star[(s, a)]) for (s, a) in q_star)
    assert max_err < 1e-3
