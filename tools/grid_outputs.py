"""Write every output of a fixed grid of CLI runs, for byte-identity checks.

    python tools/grid_outputs.py OUTDIR

For each of 54 scenes (2, 3 and 5 cameras x overlap 0.2 and 0.5 x the three
warps x seeds 1-3; 3 frames, --drop 0.05 --jitter 2 --spurious 0.05) the
tool runs ``gen-scene`` (scenario JSON and feature CSVs), then ``simulate``
with ``--agg mean`` and ``--agg min`` (report CSVs and JSON twins). It also
runs every ``--help`` and a few invalid choices. ``OUTDIR/log.txt`` records
each command's exit code, standard output and standard error.

Two checkouts, or two settings of one (``OPENBLAS_NUM_THREADS``, say), are
equal when ``diff -r`` finds no difference between their OUTDIRs. The
package is imported from the ``src`` folder next to this script.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meshcount.cli import main  # noqa: E402

CAMERAS = (2, 3, 5)
OVERLAPS = ("0.2", "0.5")
WARPS = ("translation", "affine", "projective")
SEEDS = (1, 2, 3)
COMMANDS = ("calibrate", "simulate", "gen-scene", "density", "eval-count", "eval-detect",
            "rescore-train", "rescore-eval", "sanitize-bboxes", "distance-check")
INVALID = (
    ["simulate", "--scenario", "x.json", "--agg", "median", "--out", "r.csv"],
    ["gen-scene", "--warp", "shear", "--out", "s.json"],
    ["rescore-train", "--samples", "s.csv", "--method", "XX", "--out", "m.json"],
)


def run(argv, log):
    """Run ``main(argv)`` in-process and log its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    logging.root.handlers.clear()  # main's basicConfig binds to the current stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    log.write(f"$ meshcount {' '.join(argv)}\nexit {rc}\n"
              f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}\n")


def main_grid(outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)  # relative paths keep the log free of OUTDIR's name
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    with open("log.txt", "w", encoding="utf-8") as log:
        for argv in [["--help"]] + [[c, "--help"] for c in COMMANDS] + list(INVALID):
            run(argv, log)
        for cams, overlap, warp, seed in itertools.product(CAMERAS, OVERLAPS, WARPS, SEEDS):
            scene = Path(f"c{cams}_o{overlap}_{warp}_s{seed}")
            scene.mkdir(exist_ok=True)
            run(["gen-scene", "--cameras", str(cams), "--overlap", overlap, "--warp", warp,
                 "--frames", "3", "--drop", "0.05", "--jitter", "2", "--spurious", "0.05",
                 "--seed", str(seed), "--out", str(scene / "scene.json")], log)
            for agg in ("mean", "min"):
                run(["simulate", "--scenario", str(scene / "scene.json"), "--agg", agg,
                     "--seed", str(seed), "--out", str(scene / f"report_{agg}.csv")], log)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_grid(Path(sys.argv[1]))
