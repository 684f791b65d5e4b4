"""End-to-end acceptance gate.

Each test here checks one release criterion at a pinned tolerance and is
named so the verbose test listing reads as a pass/fail line per criterion.
"""

import filecmp
import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from sarsa_arena.arena import GreedyController, RandomController
from sarsa_arena.cli import main as cli_main
from sarsa_arena.config import load_config
from sarsa_arena.encoder import (
    DirectionClass,
    DistanceBand,
    FacingSector,
    N_STATES,
    RadialMotion,
    SpeedBand,
    TangentialMotion,
    decode,
    encode_parts,
)
from sarsa_arena.harness import (
    CampaignSettings,
    evaluate_policy,
    load_games_csv,
    load_lives_csv,
    run_campaign,
)
from sarsa_arena.learner import (
    ExplorationSchedule,
    LearnerConfig,
    QTable,
    TRACE_FLOOR,
    begin_life,
    epsilon_for_lives,
    sarsa_update,
    select_action,
    terminal_update,
)
from sarsa_arena.metrics import centred_moving_average, hit_percentage, kd_ratio
from sarsa_arena.weapons import CATEGORY_ORDER

from test_learner import run_chain_sarsa, value_iteration_chain

CFG = load_config()


# -- criterion 1: the update rule against an independent reference ----------


class ReferenceSarsa:
    """Straight-from-the-definition Sarsa(lambda) with replacing traces."""

    def __init__(self, alpha, gamma, lam):
        self.alpha, self.gamma, self.lam = alpha, gamma, lam
        self.q = {}
        self.e = {}

    def update(self, s, a, r, next_value):
        self.e[(s, a)] = 1.0
        delta = r + self.gamma * next_value - self.q.get((s, a), 0.0)
        for pair in list(self.e):
            self.q[pair] = self.q.get(pair, 0.0) + self.alpha * delta * self.e[pair]
            self.e[pair] *= self.gamma * self.lam
            if self.e[pair] < TRACE_FLOOR:
                del self.e[pair]

    def reset_traces(self):
        self.e.clear()


def test_criterion_1_sarsa_updates_match_reference_to_1e_12():
    rng = random.Random(2718)
    for alpha, gamma, lam in ((0.7, 0.5, 0.9), (0.31, 0.93, 0.41)):
        cfg = LearnerConfig(alpha=alpha, gamma=gamma, lam=lam)
        table = QTable()
        ref = ReferenceSarsa(alpha, gamma, lam)
        for step in range(100):
            s, a = rng.randrange(N_STATES), rng.randrange(5)
            r = rng.uniform(-1.0, 50.0)
            if step % 17 == 16:
                terminal_update(table, s, a, r, cfg)
                ref.update(s, a, r, 0.0)
                begin_life(table)
                ref.reset_traces()
                continue
            s2, a2 = rng.randrange(N_STATES), rng.randrange(5)
            sarsa_update(table, s, a, r, s2, a2, cfg)
            ref.update(s, a, r, ref.q.get((s2, a2), 0.0))
        assert set(table.q) == set(ref.q)
        for pair, value in ref.q.items():
            assert table.value(*pair) == pytest.approx(value, abs=1e-12)
    print("CRITERION 1 PASS: updates match the reference within 1e-12")


# -- criterion 2: convergence on a solvable control problem -----------------


def test_criterion_2_chain_mdp_converges_under_5_seconds():
    start = time.perf_counter()
    table = run_chain_sarsa(episodes=5000, seed=0)
    elapsed = time.perf_counter() - start
    q_star = value_iteration_chain(0.5)
    max_err = max(abs(table.value(s, a) - q_star[s, a]) for (s, a) in q_star)
    assert max_err < 1e-3, f"max |Q - Q*| = {max_err}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"CRITERION 2 PASS: converged to {max_err:.2e} in {elapsed:.2f}s")


# -- criterion 3: state encoding is a bijection -----------------------------


def test_criterion_3_state_encoding_bijection_and_pair_count():
    seen = set()
    for parts in itertools.product(
        DistanceBand, SpeedBand, (False, True),
        (DirectionClass(r, t) for r in RadialMotion for t in TangentialMotion),
        FacingSector, (False, True),
    ):
        idx = encode_parts(*parts)
        assert 0 <= idx < N_STATES
        assert decode(idx) == parts
        seen.add(idx)
    assert len(seen) == N_STATES == 1296
    assert N_STATES * 5 * len(CATEGORY_ORDER) == 38_880
    print("CRITERION 3 PASS: 1296-state bijection, 38880 state-action pairs")


# -- criterion 4: exploration schedule and empirical branch rate ------------


def test_criterion_4_schedule_boundaries_and_empirical_rate():
    sched = ExplorationSchedule()
    expected = {
        0: 0.5, 9_999: 0.5, 10_000: 0.4, 19_999: 0.4, 20_000: 0.3,
        30_000: 0.2, 40_000: 0.1, 49_999: 0.1, 50_000: 0.05,
        1_000_000: 0.05,
    }
    for lives, eps in expected.items():
        assert epsilon_for_lives(sched, lives) == eps, lives

    table = QTable()
    rng = random.Random(99)
    exploratory = 0
    n = 100_000
    for _ in range(n):
        _, was_exploratory = select_action(table, 7, 0.3, rng)
        exploratory += was_exploratory
    rate = exploratory / n
    assert abs(rate - 0.30) < 0.02, rate
    print(f"CRITERION 4 PASS: schedule exact; empirical rate {rate:.4f}")


# -- criterion 5: reported statistics reproduce the reference numbers -------


def test_criterion_5_reference_statistics_and_exact_moving_average():
    assert kd_ratio(112_420, 48_299, 11_701) == pytest.approx(1.87, abs=0.005)
    assert kd_ratio(63_934, 52_994, 7_006) == pytest.approx(1.07, abs=0.005)
    assert kd_ratio(40_466, 54_136, 5_864) == pytest.approx(0.67, abs=0.005)
    assert hit_percentage(9.82, 26.84) == pytest.approx(27.0, abs=0.5)
    assert hit_percentage(7.30, 21.41) == pytest.approx(25.0, abs=0.5)
    assert hit_percentage(4.70, 17.83) == pytest.approx(21.0, abs=0.5)

    rng = random.Random(5)
    series = [rng.uniform(0, 40) for _ in range(60)]
    cma = centred_moving_average(series)
    assert len(cma) == 50
    for i, value in enumerate(cma):
        assert value == pytest.approx(sum(series[i : i + 11]) / 11, rel=1e-12)
    print("CRITERION 5 PASS: K:D 1.87/1.07/0.67, hit% 27/25/21, CMA exact")


# -- criterion 6: desk-scale campaigns reproduce the difficulty trends ------


SEEDS = (7, 11, 23)
LEVELS = (1, 3, 5)


def _median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@pytest.mark.slow
def test_criterion_6_difficulty_trends_across_levels(tmp_path):
    start = time.perf_counter()
    per_level = {}
    for level in LEVELS:
        game_kds, game_hits = [], []
        deaths = suicides = 0
        for seed in SEEDS:
            out = tmp_path / f"l{level}s{seed}"
            result = run_campaign(CFG, CampaignSettings(
                level=level, games=30, minutes=3.0, seed=seed,
                out_dir=out, snapshot_every=0,
            ))
            for g in result.games:
                game_kds.append(g.kills / max(1, g.deaths))
                deaths += g.deaths
                suicides += g.suicides
                rows = [r for r in result.lives if r.game == g.game]
                shots_h = sum(r.hits for r in rows)
                shots_m = sum(r.misses for r in rows)
                if shots_h + shots_m:
                    game_hits.append(100.0 * shots_h / (shots_h + shots_m))
        per_level[level] = (
            _median(game_kds), _median(game_hits), suicides / max(1, deaths),
        )
    elapsed = time.perf_counter() - start

    kds = [per_level[lv][0] for lv in LEVELS]
    hits = [per_level[lv][1] for lv in LEVELS]
    assert kds[0] > kds[1] > kds[2], f"median K:D not decreasing: {kds}"
    assert hits[0] > hits[1] > hits[2], f"median hit% not decreasing: {hits}"
    for level in LEVELS:
        frac = per_level[level][2]
        assert 0.05 <= frac <= 0.25, f"level {level} suicide fraction {frac:.3f}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    print(
        "CRITERION 6 PASS: "
        f"K:D {kds[0]:.2f}>{kds[1]:.2f}>{kds[2]:.2f}, "
        f"hit% {hits[0]:.1f}>{hits[1]:.1f}>{hits[2]:.1f}, "
        f"suicide fractions "
        + "/".join(f"{per_level[lv][2]:.2f}" for lv in LEVELS)
        + f", {elapsed:.0f}s"
    )


# -- criterion 7: the learned greedy policy beats random shooting -----------


@pytest.mark.slow
def test_criterion_7_frozen_greedy_policy_beats_random(tmp_path):
    trained = run_campaign(CFG, CampaignSettings(
        level=1, games=10, minutes=3.0, seed=7,
        out_dir=tmp_path / "train", snapshot_every=0,
    ))
    seeds = list(range(1_000, 1_500))  # 500 matched lives per policy
    # Each life is capped at 30 simulated seconds (EVAL_MAX_S).
    greedy = np.asarray([life.reward for life in evaluate_policy(
        CFG, trained.tset, GreedyController, seeds)])
    rand = np.asarray([life.reward for life in evaluate_policy(
        CFG, trained.tset, RandomController, seeds)])

    diff = greedy - rand
    boot = np.random.default_rng(0).choice(diff, size=(10_000, diff.size))
    means = boot.mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    assert diff.mean() > 0.0, f"mean diff {diff.mean():.2f}"
    assert lo > 0.0, f"bootstrap CI [{lo:.2f}, {hi:.2f}] includes zero"
    print(
        f"CRITERION 7 PASS: greedy {greedy.mean():.1f} vs random "
        f"{rand.mean():.1f} per life; 95% CI of gain [{lo:.1f}, {hi:.1f}]"
    )


# -- criterion 8: training output is reproducible byte for byte -------------


@pytest.mark.slow
def test_criterion_8_training_runs_are_byte_identical(tmp_path):
    for name in ("first", "second"):
        code = cli_main([
            "train", "--level", "all", "--games", "2", "--minutes", "1",
            "--seed", "5", "--out", str(tmp_path / name), "--no-plots",
        ])
        assert code == 0
    first = sorted(p for p in (tmp_path / "first").rglob("*") if p.is_file())
    assert first, "training produced no files"
    for path in first:
        twin = tmp_path / "second" / path.relative_to(tmp_path / "first")
        assert twin.exists(), twin
        assert filecmp.cmp(path, twin, shallow=False), path.name
    print(f"CRITERION 8 PASS: {len(first)} files byte-identical across runs")


# -- criterion 9: the books balance ------------------------------------------


def test_criterion_9_accounting_identities(tmp_path):
    result = run_campaign(CFG, CampaignSettings(
        level=3, games=3, minutes=2.0, seed=11,
        out_dir=tmp_path, snapshot_every=0, record_events=True,
    ))
    deaths_by_others = sum(g.deaths_by_others for g in result.games)
    suicides = sum(g.suicides for g in result.games)
    assert result.tset.lives == deaths_by_others + suicides

    causes = [r.death_cause for r in result.lives]
    assert causes.count("killed") == deaths_by_others
    assert sum(c.startswith("suicide-") for c in causes) == suicides

    ev_kills = ev_deaths = ev_suicides = 0
    for line in (tmp_path / "events.log").read_text().splitlines():
        fields = line.split()
        if fields[1] == "kill":
            if fields[2] == "0" and fields[3] != "0":
                ev_kills += 1
            if fields[3] == "0":
                ev_deaths += 1
        elif fields[1] == "suicide" and fields[2] == "0":
            ev_suicides += 1
    assert ev_kills == sum(g.kills for g in result.games)
    assert ev_deaths == deaths_by_others
    assert ev_suicides == suicides

    back = load_lives_csv(tmp_path / "lives.csv")
    assert back == result.lives
    assert load_games_csv(tmp_path / "games.csv") == result.games
    print("CRITERION 9 PASS: event log, game records and lives agree")
