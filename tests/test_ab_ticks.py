import importlib.util
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_ticks", ROOT / "tools" / "ab_ticks.py")
ab_ticks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_ticks)


def test_a_checkout_against_itself(capsys):
    assert ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT),
                          "--lives", "3", "--games", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" base/change")[0] for line in lines] == [
        "frozen-eval: 3 pairs, cpu_s", "frozen-eval: 3 pairs, wall_s",
        "level-5 game: 1 pairs, cpu_s", "level-5 game: 1 pairs, wall_s",
    ]


# Once a run that compared nothing, printed nothing and exited 0.
@pytest.mark.parametrize("flag", ["--lives", "--games"])
def test_negative_count_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT), flag, "-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {flag} must be >= 0, got -3" in err


# Once a run that started both workers, compared nothing and exited 0.
def test_no_units_at_all_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        ab_ticks.main(["--base", str(ROOT), "--change", str(ROOT), "--lives", "0", "--games", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --lives and --games are both 0: nothing to compare" in err


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
    from sarsa_arena.config import default_config

    logged = []
    real_run_campaign = harness.run_campaign

    def recording(sim, settings):
        result = real_run_campaign(sim, settings)
        log = Path(settings.out_dir) / "events.log"
        logged.append((settings.record_events, log.stat().st_size))
        return result

    monkeypatch.setattr(harness, "run_campaign", recording)
    assert ab_ticks._level5_game(default_config(), 1)
    [(record_events, size)] = logged
    assert record_events and size > 0


class FakeSide:
    def __init__(self, name, lines, seconds, log):
        self.name, self.lines, self.seconds, self.log = name, lines, seconds, log

    def run(self, unit):
        self.log.append((self.name, unit["seed"]))
        return {"cpu_s": self.seconds, "wall_s": self.seconds, "lines": self.lines}


def test_sides_alternate_abba_and_ratios_are_base_over_change():
    log = []
    base, change = FakeSide("A", ["a"], 2.0, log), FakeSide("B", ["a"], 1.0, log)
    units = ab_ticks.units(4, 0)["frozen-eval"]
    ratios = ab_ticks.compare(base, change, units)
    assert ratios == {"cpu_s": [2.0] * 4, "wall_s": [2.0] * 4}
    timed = log[2 * ab_ticks.WARMUP_UNITS:]
    assert "".join(name for name, _ in timed) == "ABBAABBA"
    assert [seed for _, seed in timed] == [u["seed"] for u in units for _ in "AB"]


def test_differing_life_lines_stop_the_comparison():
    base, change = FakeSide("A", ["a"], 1.0, []), FakeSide("B", ["b"], 1.0, [])
    with pytest.raises(SystemExit, match="outputs differ"):
        ab_ticks.compare(base, change, ab_ticks.units(1, 0)["frozen-eval"])


def test_bootstrap_interval_brackets_the_median():
    ratios = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8]
    lo, hi = ab_ticks.bootstrap_median_ci(ratios, random.Random(0))
    assert lo <= 1.0 <= hi
    assert ab_ticks.bootstrap_median_ci([1.5] * 5, random.Random(0)) == (1.5, 1.5)
