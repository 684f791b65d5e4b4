"""Campaigns, evaluations, snapshots and `inspect` load no numpy.

numpy is imported only where report statistics and svg plots are computed,
so a process that never summarises starts without it.  The check runs in a
fresh interpreter, because this test session itself has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_PATHS = """
import random
import sys

import sarsa_arena
import sarsa_arena.cli
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
assert cli.main(["inspect", snap]) == 0
harness.run_campaign(sim, harness.CampaignSettings(
    level=1, games=1, minutes=0.1, seed=1, out_dir=out + "/campaign",
    snapshot_every=0,
))
harness.evaluate_policy(sim, tset, arena.GreedyController, [1])
assert "numpy" not in sys.modules, "numpy was loaded"
"""


def test_cold_paths_do_not_load_numpy(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "SARSA_ARENA_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATHS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
