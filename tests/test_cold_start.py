"""The package runs on the standard library alone.

Training with plots, reporting, inspecting, ticking a World and evaluating
a policy load no module outside the standard library and `sarsa_arena`.  The
check runs in a fresh interpreter, because this test session itself has
numpy and pytest loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATHS, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
