import importlib.util
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_ticks", ROOT / "tools" / "ab_ticks.py")
ab_ticks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_ticks)


def test_a_checkout_against_itself(capsys):
    assert ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT),
                          "--lives", "3", "--games", "1", "--setups", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" base/change")[0] for line in lines] == [
        "frozen-eval: 3 pairs, cpu_s", "frozen-eval: 3 pairs, wall_s",
        "level-5 game: 1 pairs, cpu_s", "level-5 game: 1 pairs, wall_s",
        "frozen-eval start-up: 3 pairs, cpu_s", "frozen-eval start-up: 3 pairs, wall_s",
        "frozen-eval start-up: 3 pairs, peak_rss_mb",
    ]


def test_start_ups_alone_against_itself(capsys):
    assert ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT),
                          "--lives", "0", "--games", "0", "--setups", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" base/change")[0] for line in lines] == [
        "frozen-eval start-up: 2 pairs, cpu_s", "frozen-eval start-up: 2 pairs, wall_s",
        "frozen-eval start-up: 2 pairs, peak_rss_mb",
    ]


# Once a run that compared nothing, printed nothing and exited 0.
@pytest.mark.parametrize("flag", ["--lives", "--games", "--setups"])
def test_negative_count_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT), flag, "-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {flag} must be >= 0, got -3" in err


# Once a run that started both workers, compared nothing and exited 0.
def test_no_units_at_all_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT),
                       "--lives", "0", "--games", "0", "--setups", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and (
        "error: --lives, --games and --setups are all 0: nothing to compare" in err
    )


# Once a FileNotFoundError traceback from Popen, or a worker's ImportError
# followed by "RuntimeError: worker ... exited".
@pytest.mark.parametrize("flag", ["--base", "--change"])
@pytest.mark.parametrize("missing", [None, *ab_ticks.CHECKOUT_FILES])
def test_path_that_is_not_a_checkout_is_a_usage_error(flag, missing, tmp_path, capsys, monkeypatch):
    checkout = tmp_path / "checkout"
    for needed in ab_ticks.CHECKOUT_FILES:
        if missing is not None and needed != missing:
            (checkout / needed).parent.mkdir(parents=True, exist_ok=True)
            (checkout / needed).write_text("")
    started = []
    monkeypatch.setattr(ab_ticks, "Side", started.append)
    paths = {"--base": str(ROOT), "--change": str(ROOT), flag: str(checkout)}
    with pytest.raises(SystemExit) as exc:
        ab_ticks.main([arg for item in paths.items() for arg in item])
    assert exc.value.code == 2 and not started
    out, err = capsys.readouterr()
    lacks = missing or ab_ticks.CHECKOUT_FILES[0]
    assert out == "" and f"error: {flag} {checkout} is not a checkout: it lacks {lacks}" in err


def test_level5_unit_writes_events_as_train_l5_does(monkeypatch):
    from sarsa_arena import harness
    from sarsa_arena.config import load_config

    logged = []
    real_run_campaign = harness.run_campaign

    def recording(sim, settings):
        result = real_run_campaign(sim, settings)
        out = Path(settings.out_dir)
        logged.append((settings.record_events, (out / "events.log").stat().st_size,
                       settings.snapshot_every, sorted(p.name for p in out.glob("snap_*"))))
        return result

    monkeypatch.setattr(harness, "run_campaign", recording)
    assert ab_ticks._level5_game(load_config(), 1)
    [(record_events, size, snapshot_every, snapshots)] = logged
    assert record_events and size > 0
    assert snapshot_every == 5 and "snap_5_5.rlsq" in snapshots


class FakeSide:
    """A worker for checkout `name` that takes `SECONDS[name]` per unit and
    logs its start, each unit it runs and its close."""

    SECONDS = {"A": 2.0, "B": 1.0}

    def __init__(self, name, log, lines=("a",)):
        self.name, self.log, self.lines = name, log, list(lines)
        log.append(("start", name))

    def run(self, unit):
        self.log.append((self.name, unit.get("seed", unit.get("run"))))
        seconds = self.SECONDS[self.name]
        return {"cpu_s": seconds, "wall_s": seconds, "lines": self.lines}

    def close(self):
        self.log.append(("close", self.name))


def test_sides_alternate_abba_and_ratios_are_base_over_change():
    log = []
    units = ab_ticks.units(4, 0)["frozen-eval"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, log))
    assert ratios == {"cpu_s": [[2.0] * 4], "wall_s": [[2.0] * 4]}
    timed = log[2 + 2 * ab_ticks.WARMUP_UNITS:-2]
    assert "".join(name for name, _ in timed) == "ABBAABBA"
    assert [seed for _, seed in timed] == [u["seed"] for u in units for _ in "AB"]


def test_start_ups_run_abba_as_the_other_kinds_do():
    log = []
    units = ab_ticks.units(0, 0, 4)["frozen-eval start-up"]
    assert [u["run"] for u in units] == [0, 1, 2, 3]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, log))
    assert ratios == {"cpu_s": [[2.0] * 4], "wall_s": [[2.0] * 4]}
    timed = log[2 + 2 * ab_ticks.WARMUP_UNITS:-2]
    assert "".join(name for name, _ in timed) == "ABBAABBA"


class FakeProbeSide(FakeSide):
    """A FakeSide whose start-ups also report a peak RSS of `RSS[name]` MB."""

    RSS = {"A": 17.0, "B": 15.0}

    def run(self, unit):
        return {**super().run(unit), "peak_rss_mb": self.RSS[self.name]}


def test_start_ups_compare_peak_rss_as_base_over_change():
    units = ab_ticks.units(0, 0, 4)["frozen-eval start-up"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeProbeSide(name, []))
    assert ratios == {
        "cpu_s": [[2.0] * 4], "wall_s": [[2.0] * 4], "peak_rss_mb": [[17.0 / 15.0] * 4],
    }


# Once the peak RSS of RUSAGE_CHILDREN, which is the largest of every child
# the worker had reaped, not the probe's own.
def test_a_start_up_reads_its_own_peak_rss():
    subprocess.run([sys.executable, "-c", "b = b'x' * (64 << 20)"], check=True)
    children_peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    cpu, wall, rss = ab_ticks._start_up(ROOT)
    assert children_peak_mb > 64.0
    assert 0.0 < rss < 64.0 and cpu > 0.0 and wall > 0.0


def test_a_failing_start_up_raises_with_its_output(tmp_path):
    probe = tmp_path / ab_ticks.SETUP_PROBE
    probe.parent.mkdir(parents=True)
    probe.write_text("import sys\nsys.exit('probe failed')\n")
    with pytest.raises(subprocess.CalledProcessError) as exc:
        ab_ticks._start_up(tmp_path)
    assert exc.value.returncode == 1 and "probe failed" in exc.value.output


def test_each_block_gets_fresh_workers_and_the_lead_alternates(monkeypatch):
    monkeypatch.setattr(ab_ticks, "BLOCK_UNITS", 4)
    log = []
    units = ab_ticks.units(10, 0)["frozen-eval"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, log))
    assert ratios == {clock: [[2.0] * 4, [2.0] * 4, [2.0] * 2] for clock in ("cpu_s", "wall_s")}
    blocks = []
    for event in log:
        if event[0] == "start" and (not blocks or blocks[-1][-1][0] == "close"):
            blocks.append([])
        blocks[-1].append(event)
    assert len(blocks) == 3
    for block, lead, timed_order, block_units in zip(
        blocks, "ABA", ("ABBAABBA", "BAABBAAB", "ABBA"), (units[:4], units[4:8], units[8:]),
    ):
        other = "B" if lead == "A" else "A"
        # Started lead first, warmed up, timed, then both closed.
        assert block[:2] == [("start", lead), ("start", other)]
        assert block[-2:] == [("close", lead), ("close", other)]
        runs = block[2:-2]
        warmup = 2 * ab_ticks.WARMUP_UNITS
        assert runs[:warmup] == [
            (name, u["seed"]) for u in block_units[:ab_ticks.WARMUP_UNITS] for name in (lead, other)
        ]
        timed = runs[warmup:]
        assert "".join(name for name, _ in timed) == timed_order
        assert [seed for _, seed in timed] == [u["seed"] for u in block_units for _ in "AB"]


def test_blocks_of_the_default_size():
    log = []
    units = ab_ticks.units(60, 0)["frozen-eval"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, log))
    assert [len(block) for block in ratios["cpu_s"]] == [25, 25, 10]
    assert [event for event in log if event[0] == "start"] == [
        ("start", lead) for pair in ("AB", "BA", "AB") for lead in pair
    ]


# Once 40 start-ups in two blocks, so that the interval rested on two pairs
# of workers.
def test_default_start_ups_span_at_least_four_blocks():
    setups = ab_ticks.parse_args(["--base", str(ROOT), "--change", str(ROOT)]).setups
    units = ab_ticks.units(0, 0, setups)["frozen-eval start-up"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, []))
    assert len(ratios["cpu_s"]) >= 4


# Once 40 games in two blocks (25 and 15), as the start-ups were.
def test_default_games_span_at_least_four_blocks():
    games = ab_ticks.parse_args(["--base", str(ROOT), "--change", str(ROOT)]).games
    units = ab_ticks.units(0, games)["level-5 game"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, []))
    assert len(ratios["cpu_s"]) >= 4


# A tick-path change is judged on at least 300 frozen-eval lives.
def test_default_lives_are_twelve_full_blocks():
    lives = ab_ticks.parse_args(["--base", str(ROOT), "--change", str(ROOT)]).lives
    units = ab_ticks.units(lives, 0)["frozen-eval"]
    ratios = ab_ticks.compare("A", "B", units, start=lambda name: FakeSide(name, []))
    assert [len(block) for block in ratios["cpu_s"]] == [25] * 12


def test_differing_life_lines_stop_the_comparison():
    log = []

    def start(name):
        return FakeSide(name, log, lines=[name])

    with pytest.raises(SystemExit, match="outputs differ"):
        ab_ticks.compare("A", "B", ab_ticks.units(1, 0)["frozen-eval"], start=start)
    assert log[-2:] == [("close", "A"), ("close", "B")]


def test_resampling_draws_whole_blocks_then_units_within_them():
    rng = random.Random(0)
    # Within a block of equal units, a draw repeats the block whole.
    blocks = [[1.0] * 3, [2.0] * 5]
    seen = {tuple(ab_ticks.resample(blocks, rng)) for _ in range(200)}
    assert seen == {
        tuple(first + second) for first in blocks for second in blocks
    }
    # Within a drawn block, units are drawn with replacement.
    draws = [ab_ticks.resample([[1.0, 2.0, 3.0]], rng) for _ in range(200)]
    assert all(len(d) == 3 and set(d) <= {1.0, 2.0, 3.0} for d in draws)
    assert any(len(set(d)) < 3 for d in draws)


def test_interval_covers_the_spread_between_blocks():
    # One of three worker pairs ran 20% apart: a bootstrap over the pooled
    # units would hide it, one over blocks does not.
    blocks = [[1.0] * 25, [1.0] * 25, [1.2] * 25]
    assert ab_ticks.bootstrap_median_ci(blocks, random.Random(0)) == (1.0, 1.2)
    pooled = [[ratio for block in blocks for ratio in block]]
    assert ab_ticks.bootstrap_median_ci(pooled, random.Random(0)) == (1.0, 1.0)


def test_bootstrap_interval_brackets_the_median():
    ratios = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8]
    lo, hi = ab_ticks.bootstrap_median_ci([ratios], random.Random(0))
    assert lo <= 1.0 <= hi
    assert ab_ticks.bootstrap_median_ci([[1.5] * 5], random.Random(0)) == (1.5, 1.5)
