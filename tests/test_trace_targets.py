"""The per-layer tracer of perfbench/ must find every name it wraps.

perfbench/tracing.py replaces functions and methods of sarsa_arena by name.
A refactor that renames or moves one of them breaks only traced benchmark
runs, so these tests load the tracer by file path (without changing it) and
check its targets against this checkout.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache beside it.
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


tracing = load_tracing()


def resolve(module_path: str, chain: str):
    """The object the tracer wraps: `vars(owner)[attr]`, as Tracer.install
    looks it up."""
    owner = importlib.import_module(module_path)
    *owners, attr = chain.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return vars(owner)[attr]


TARGETS = [(module_path, chain) for _, module_path, chain, _ in tracing.TARGETS]


@pytest.mark.parametrize("module_path,chain", TARGETS, ids=[f"{m}:{c}" for m, c in TARGETS])
def test_target_resolves(module_path, chain):
    assert callable(resolve(module_path, chain))


def test_install_then_uninstall_restores_every_original():
    originals = {target: resolve(*target) for target in TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {target: resolve(*target) for target in TARGETS}
    finally:
        tracer.uninstall()
    assert all(wrapped[t] is not originals[t] for t in TARGETS)
    assert all(resolve(*t) is originals[t] for t in TARGETS)


def test_each_controller_counts_its_own_decisions():
    # The frozen controllers share RlShooterController's decide body but
    # bind it in their own class bodies, so the tracer counts each class's
    # decisions once, under its own name.
    from sarsa_arena.arena import GreedyController, RandomController
    from sarsa_arena.config import load_config
    from sarsa_arena.harness import evaluate_policy
    from sarsa_arena.weapons import new_table_set

    sim = load_config()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for controller_cls in (GreedyController, RandomController):
            evaluate_policy(sim, new_table_set(sim.learner), controller_cls, [1, 2])
    finally:
        tracer.uninstall()
    calls = {name: stats.calls for name, stats in tracer.stats.items()}
    assert calls["arena.GreedyController.decide"] == calls["learner.QTable.row"] > 0
    assert calls["arena.RandomController.decide"] > 0
    assert calls["arena.RlShooterController.decide"] == 0


def test_the_train_command_counts_every_traced_layer(tmp_path):
    # train-l5's per-layer numbers come from these wrappers: a call site that
    # bound tick or write_snapshot around its module attribute would read 0.
    from sarsa_arena import cli
    from sarsa_arena.config import load_config

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "train", "--level", "5", "--games", "1", "--minutes", "0.05",
            "--snapshot-every", "1", "--events", "--no-plots", "--seed", "1",
            "--out", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: stats.calls for name, stats in tracer.stats.items()}
    assert calls["harness.run_campaign"] == calls["arena.World"] == calls["config.load_config"] == 1
    assert calls["arena.tick"] == round(0.05 * 60 * load_config().physics.tick_hz)
    # The final snapshot is always written.
    assert calls["snapshots.write_snapshot"] >= 1
