"""Train the shooter bot for a handful of games and watch its scoreline.

Runs a short level-1 campaign, prints each game's kills/deaths as it
completes, and finishes with the standard report table plus the three SVG
charts next to the CSVs.

Usage: python3 demos/learning_curve.py [out_dir]
"""

import sys
from pathlib import Path

from sarsa_arena.config import load_config
from sarsa_arena.harness import (
    CampaignSettings,
    format_report,
    run_campaign,
    summarize_level,
)
from sarsa_arena.svg import render_campaign_plots

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out/learning_curve")
sim = load_config()

settings = CampaignSettings(
    level=1, games=12, minutes=3.0, seed=42, out_dir=out, snapshot_every=25,
)
print(f"training: {settings.games} games of {settings.minutes:g} simulated "
      f"minutes at level {settings.level}, seed {settings.seed}")
result = run_campaign(sim, settings)

print("\n game  kills  deaths  suicides  streak")
for g in result.games:
    print(f"  {g.game:3d}  {g.kills:5d}  {g.deaths_by_others:6d}  "
          f"{g.suicides:8d}  {g.max_kill_streak:6d}")

print()
print(format_report([summarize_level(result.lives, result.games)]))

paths = render_campaign_plots(result.games, out)
print(f"\nwrote {', '.join(p.name for p in paths)} to {out}/")
print(f"snapshots: {sorted(p.name for p in out.glob('*.rlsq'))}")
