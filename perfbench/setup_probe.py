"""One start-up of a workload in a fresh interpreter, timed from ``import
sarsa_arena`` through the config load (and the policy read on frozen-eval) to
the end of the first tick.  Prints the seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD POLICY
"""

import sys
import time

start = time.perf_counter()

import random  # noqa: E402

import sarsa_arena  # noqa: E402,F401
from sarsa_arena import arena, config, snapshots, weapons  # noqa: E402

workload, policy_path = sys.argv[1], sys.argv[2]
if workload == "train-l5":
    import sarsa_arena.cli  # noqa: F401  the CLI flow also loads the CLI and svg

sim = config.load_config()
if workload == "frozen-eval":
    tset = snapshots.read_snapshot(policy_path)
    controller_cls = arena.GreedyController
else:
    tset = weapons.new_table_set(sim.learner)
    controller_cls = arena.RlShooterController
level = 5 if workload == "train-l5" else 1
rng = random.Random(0)
world = arena.World(
    sim.arena, sim.armory, sim.physics, sim.behavior, sim.profiles[level],
    controller_cls(tset, sim.armory, sim.priority, rng), rng,
)
world.tick()
print(repr(time.perf_counter() - start))
