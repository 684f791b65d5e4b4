#!/usr/bin/env python3
"""Digest of the golden training command, compared with reference.json.

    python3 perfbench/golden.py

Runs ``train --level all --games 3 --minutes 3 --seed 5 --no-plots`` in a
scratch directory under perfbench/out and digests every file it writes.
A digest that differs from the recorded one means the outputs changed: a
performance change must keep them byte-identical, a correctness change says
why they moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from run import BENCH, OUT, use_checkout

GOLDEN = ["train", "--level", "all", "--games", "3", "--minutes", "3",
          "--seed", "5", "--no-plots"]


def main() -> int:
    use_checkout()
    from sarsa_arena import cli
    from workloads import tree_digest

    out = OUT / f"golden-{os.getpid()}"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(GOLDEN + ["--out", str(out)])
        digest = tree_digest(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    expected = reference["golden"]["sha256"]
    print(json.dumps({
        "command": " ".join(GOLDEN), "exit_code": code, "sha256": digest,
        "outputs_changed": digest != expected,
    }))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
