"""Does the bot actually learn something? Freeze the policy and find out.

Trains briefly at level 1, then plays matched-seed evaluation lives twice:
once acting greedily on the learned Q-tables (no further updates) and once
picking aim actions uniformly at random. Prints mean reward per life for
both policies.
"""

import statistics
import tempfile
from pathlib import Path

from sarsa_arena.arena import GreedyController, RandomController
from sarsa_arena.config import load_config
from sarsa_arena.harness import CampaignSettings, evaluate_policy, run_campaign

N_LIVES = 120

sim = load_config()
print("training 8 games at level 1 ...")
# The campaign's CSVs and snapshot are not needed past training.
with tempfile.TemporaryDirectory(prefix="frozen_policy_") as out:
    trained = run_campaign(sim, CampaignSettings(
        level=1, games=8, minutes=3.0, seed=7, out_dir=Path(out), snapshot_every=0,
    ))
print(f"done: {trained.tset.lives} lives of experience\n")

for name, cls in (("greedy", GreedyController), ("random", RandomController)):
    # Lives are capped at 30 simulated seconds (harness.EVAL_MAX_S).
    lives = evaluate_policy(sim, trained.tset, cls, range(5000, 5000 + N_LIVES))
    rewards = [life.reward for life in lives]
    print(f"{name:>6s}: mean reward {statistics.fmean(rewards):7.1f} "
          f"over {N_LIVES} lives "
          f"(median {statistics.median(rewards):.0f})")
