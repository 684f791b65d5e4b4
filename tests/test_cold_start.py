"""What a fresh interpreter loads.

The package runs on the standard library alone: training with plots,
reporting, inspecting, ticking a World and evaluating a policy load no
module outside the standard library and `sarsa_arena`.  Its namespace is
lazy: `import sarsa_arena` loads no submodule, and a frozen-policy
evaluation loads only the submodules it uses.  Each check runs in a fresh
interpreter, because this test session itself has numpy, pytest and every
submodule loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POLICY = ROOT / "perfbench" / "data" / "policy-l1-s7.rlsq"


def run_fresh(script, *args):
    """Run `script` in a fresh interpreter that imports from src/; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


COLD_PATHS = """
import sys

at_start = set(sys.modules)

import random

from sarsa_arena import arena, cli, config, harness, snapshots, weapons

out = sys.argv[1]
sim = config.load_config()
snap = out + "/policy.rlsq"
snapshots.write_snapshot(weapons.new_table_set(sim.learner), snap)
tset = snapshots.read_snapshot(snap)
rng = random.Random(0)
world = arena.World(
    sim.arena, sim.armory, sim.physics, sim.behavior, sim.profiles[1],
    arena.RlShooterController(tset, sim.armory, sim.priority, rng), rng,
)
for _ in range(30):
    world.tick()
# 11 games, so that the plots draw their moving averages.
assert cli.main([
    "train", "--level", "all", "--games", "11", "--minutes", "0.05",
    "--seed", "1", "--out", out + "/train",
]) == 0
assert cli.main(["report", out + "/train"]) == 0
assert cli.main(["inspect", snap]) == 0
harness.evaluate_policy(sim, tset, arena.GreedyController, [1])
outside = sorted(
    name for name in set(sys.modules) - at_start
    if name.partition(".")[0] not in sys.stdlib_module_names | {"sarsa_arena"}
)
assert not outside, f"loaded outside the standard library: {outside}"
"""


def test_cold_paths_load_only_the_standard_library(tmp_path):
    run_fresh(COLD_PATHS, tmp_path)


LOADED = """
import sys
print(" ".join(sorted(name for name in sys.modules if name.startswith("sarsa_arena."))))
print("csv" in sys.modules)
"""


def test_import_alone_loads_no_submodule():
    assert run_fresh("import sarsa_arena" + LOADED) == "\nFalse\n"


# The set-up that perfbench/setup_probe.py times for the frozen-eval workload.
FROZEN_EVAL_SETUP = """
import random
import sys

from sarsa_arena import arena, config, snapshots, weapons

sim = config.load_config()
tset = snapshots.read_snapshot(sys.argv[1])
rng = random.Random(0)
world = arena.World(
    sim.arena, sim.armory, sim.physics, sim.behavior, sim.profiles[1],
    arena.GreedyController(tset, sim.armory, sim.priority, rng), rng,
)
world.tick()
"""


def test_frozen_eval_setup_loads_only_what_it_uses():
    modules, csv_loaded = run_fresh(FROZEN_EVAL_SETUP + LOADED, POLICY).splitlines()
    assert modules.split() == [
        f"sarsa_arena.{name}" for name in
        ("arena", "config", "encoder", "geometry", "learner", "snapshots", "weapons")
    ]
    assert csv_loaded == "False"


# `dataclasses` cost a cold start about a third of its time: importing it
# loads `inspect`, `dis`, `ast` and `tokenize`, and each class it builds
# compiles generated code.  The package's records are NamedTuples and plain
# classes with __slots__ instead.
HEAVY = """
import sys
print(" ".join(name for name in ("dataclasses", "inspect") if name in sys.modules))
"""


def test_frozen_eval_setup_loads_neither_dataclasses_nor_inspect():
    assert run_fresh(FROZEN_EVAL_SETUP + HEAVY, POLICY) == "\n"


def test_cold_paths_load_neither_dataclasses_nor_inspect(tmp_path):
    assert run_fresh(COLD_PATHS + HEAVY, tmp_path).splitlines()[-1] == ""


NAMESPACE = """
import importlib
import sys

import sarsa_arena

assert set(sarsa_arena.__all__) <= set(dir(sarsa_arena))
# Each name through the lazy attribute first, then from its module.
for name in sarsa_arena.__all__:
    value = getattr(sarsa_arena, name)
    module = importlib.import_module("sarsa_arena." + sarsa_arena._EXPORTS[name])
    assert value is getattr(module, name), name
    assert vars(sarsa_arena)[name] is value, name

star = {}
exec("from sarsa_arena import *", star)
assert sorted(set(star) - {"__builtins__"}) == sarsa_arena.__all__

from sarsa_arena import harness, run_campaign
assert harness is sys.modules["sarsa_arena.harness"]
assert run_campaign is harness.run_campaign

try:
    sarsa_arena.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
assert not hasattr(sarsa_arena, "no_such_name")
print(sarsa_arena.__version__)
"""


def test_every_exported_name_is_its_modules_own_object():
    assert run_fresh(NAMESPACE) == "0.1.0\n"

