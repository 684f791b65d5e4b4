#!/usr/bin/env python3
"""sarsa-arena benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (train-l5, sweep-9 or frozen-eval; see README.md) from the
root of a checkout, in a closed loop: one client in one process, each
repetition of the workload started only when the previous one has returned,
for at most S seconds.  Untraced repetitions cycle through the workload's
input variants (all made from the seed), so that the metrics average over
several inputs rather than one.  Every repetition's outputs are checked and
digested, and repetitions of one variant must give the same digest.  The
last line of standard output is one JSON object holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) that BENCHMARK.json
names, each with its unit.

With --trace 1, repetitions alternate untraced and traced, all on variant 0;
the traced ones give the per-layer numbers, per repetition of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up probes per untraced run, spread evenly over it so that they see the
# same host conditions as the repetitions.
SETUP_PROBES = 9
MIN_REPETITIONS = 3  # untraced; a traced run needs two traced and two untraced
EPS_SCHEDULE_LIVES = 50_000


@dataclass
class Repetition:
    variant: int
    traced: bool
    wall_s: float
    outcome: object  # workloads.Outcome
    stats: dict | None  # traced name -> (calls, self_s, total_s, hits)


def use_checkout() -> None:
    """Import sarsa_arena from this checkout's src/, with the bundled config
    (outputs are compared with digests made from it)."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("SARSA_ARENA_CONFIG", None)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_time(workload: str, policy: Path) -> float:
    """One set-up in a fresh interpreter (setup_probe.py), in seconds."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(policy)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float, tracer, probe) -> tuple[list[Repetition], list[float]]:
    """Repetitions until `seconds` have passed, and the set-up times of the
    `probe` calls made between them (none when `probe` is None)."""
    reps: list[Repetition] = []
    setup: list[float] = []
    probes = 0 if probe is None else SETUP_PROBES
    start = time.perf_counter()
    with workload:
        while True:
            elapsed = time.perf_counter() - start
            # Stop before a repetition that would end after the deadline, so
            # a run lasts at most `seconds` once it has enough repetitions.
            n_traced = sum(r.traced for r in reps)
            if tracer is None:
                enough = len(reps) >= MIN_REPETITIONS
            else:
                enough = n_traced >= 2 and len(reps) - n_traced >= 2
            last = enough and elapsed + max(r.wall_s for r in reps[-2:]) > seconds
            if len(setup) < probes and (last or len(setup) * seconds <= elapsed * probes):
                setup.append(probe())
                continue
            if last:
                return reps, setup
            traced = tracer is not None and len(reps) % 2 == 1
            # Traced runs compare call counts between repetitions, so they
            # stay on one input.
            variant = 0 if tracer is not None else len(reps) % workload.VARIANTS
            run = workload.run
            if traced:
                tracer.reset_stats()
                tracer.install()
                run = tracer.span("bench.repetition", run)
            try:
                t0 = time.perf_counter()
                state = run(variant)
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            stats = {
                name: (s.calls, s.self_s, s.total_s, s.hits)
                for name, s in tracer.stats.items()
            } if traced else None
            reps.append(Repetition(variant, traced, wall, workload.check(state), stats))


def tally(reps: list[Repetition]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions.

    Every repetition must give the output digest of the first repetition of
    its variant; one that does not fails all of its operations.
    """
    attempted = failed = 0
    problems: dict[str, int] = {}
    digests: dict[int, str] = {}
    for rep in reps:
        outcome = rep.outcome
        messages = list(outcome.problems)
        attempted += outcome.attempted
        digest = digests.setdefault(rep.variant, outcome.digest)
        if outcome.digest != digest:
            messages.append(f"output digest {outcome.digest} differs from {digest}")
            failed += outcome.attempted
        else:
            failed += len(outcome.failed)
        for message in messages:
            problems[message] = problems.get(message, 0) + 1
    return attempted, failed, [f"{m} (x{n})" for m, n in problems.items()]


def end_to_end(reps: list[Repetition], setup: list[float]) -> tuple[dict, dict]:
    """Metric values, and the per-repetition samples behind them.

    The rates are whole-run rates: the ticks and lives of all repetitions
    over their summed wall time.  The host's speed drifts in phases of
    seconds to minutes, and a whole-run rate weighs every phase by its
    length, where a median of repetitions jumps between phases.  wall_s is
    the mean wall time of a repetition, setup_s the median of the probes.
    """
    untraced = [r for r in reps if not r.traced]
    samples = {
        "ticks_per_s": [r.outcome.ticks / r.wall_s for r in untraced],
        "wall_s": [r.wall_s for r in untraced],
        "lives_per_s": [r.outcome.lives / r.wall_s for r in untraced],
        "setup_s": setup,
    }
    wall = sum(r.wall_s for r in untraced)
    values = {
        "ticks_per_s": sum(r.outcome.ticks for r in untraced) / wall,
        "wall_s": wall / len(untraced),
        "lives_per_s": sum(r.outcome.lives for r in untraced) / wall,
        "setup_s": statistics.median(setup),
    }
    values["eps_schedule_h"] = EPS_SCHEDULE_LIVES / values["lives_per_s"] / 3600.0
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, samples


def per_layer(reps: list[Repetition], names: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer values per repetition of the workload, and any problems.

    Counts come from the first traced repetition and must repeat exactly in
    the others; times are medians over the traced repetitions.
    """
    traced = [r for r in reps if r.traced]
    first = traced[0].stats
    problems = [
        f"calls or outcomes of {name} differ between traced repetitions"
        for name in names
        if any((r.stats[name][0], r.stats[name][3]) != (first[name][0], first[name][3])
               for r in traced)
    ]

    def self_s(*of):
        return statistics.median(sum(r.stats[n][1] for n in of) for r in traced)

    def busy_s(name):
        return statistics.median(r.stats[name][2] for r in traced)

    def ratio(name):
        calls, hits = first[name][0], first[name][3]
        return hits / calls if calls else 0.0

    values = {}
    for name in names:
        values[f"{name}.calls"] = first[name][0]
        values[f"{name}.self_s"] = self_s(name)
    decide = [n for n in names if n.endswith(".decide")]
    learner = [n for n in names if n.startswith("learner.")]
    values.update({
        "geometry.segments_intersect.hit_ratio": ratio("geometry.segments_intersect"),
        "arena.line_of_sight.clear_ratio": ratio("arena.line_of_sight"),
        "arena.decide.calls": sum(first[n][0] for n in decide),
        "arena.decide.self_s": self_s(*decide),
        "arena.World.busy_s": busy_s("arena.World"),
        "learner.select_action.exploratory_ratio": ratio("learner.select_action"),
        "learner.self_s": self_s(*learner),
        "snapshots.write_snapshot.bytes": first["snapshots.write_snapshot"][3],
        "snapshots.self_s": self_s("snapshots.write_snapshot", "snapshots.read_snapshot"),
        "config.load_config.busy_s": busy_s("config.load_config"),
        "unattributed_s": statistics.median(
            r.wall_s - sum(r.stats[n][1] for n in names) for r in traced
        ),
        "trace_overhead_ratio": (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in reps if not r.traced)
        ),
    })
    return values, problems


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sarsa_arena" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no sarsa_arena sources under {SRC} or no {spec_path.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    use_checkout()

    from tracing import NAMES, Tracer
    from workloads import POLICY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else (lambda: setup_time(args.workload, POLICY))
    try:
        work.mkdir()
        workload = WORKLOADS[args.workload](args.seed, work)
        reps, setup = measure(workload, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, problems = tally(reps)
    if args.trace:
        values, layer_problems = per_layer(reps, NAMES)
        problems += layer_problems
        samples = {}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(reps, setup)
        wanted = spec["end_to_end"]

    digest = reps[0].outcome.digest  # variant 0: the seed's own inputs
    expected = reference["digests"].get(args.workload, {}).get(str(args.seed))
    outputs_changed = None if expected is None else digest != expected
    error_rate = failed / attempted
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": [
            {"variant": r.variant, "traced": r.traced, "wall_s": r.wall_s,
             "ticks": r.outcome.ticks, "lives": r.outcome.lives,
             "digest": r.outcome.digest}
            for r in reps
        ],
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "problems": problems, "digest": digest,
        "outputs_changed": outputs_changed, "values": values, "samples": samples,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )

    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({sum(r.traced for r in reps)} traced), {attempted} operations, "
          f"{failed} failed, error_rate {error_rate!r}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"output digest {digest}; outputs_changed "
          f"{'unknown (no reference for this seed)' if expected is None else outputs_changed}")
    for name in sorted(values):
        spread = describe(samples[name]) if name in samples else ""
        print(f"  {name:48s} {values[name]!r:>24}  {spread}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
