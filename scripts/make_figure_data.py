#!/usr/bin/env python3
"""Regenerate every figure-style dataset as CSV under out/.

Thin wrapper over the CLI so each dataset's exact invocation is on record.
On one thread of a 2-core Xeon VM the two trajectory configs take 18-19 s
(4 ensembles) and 17-18 s (5 ensembles); pass --skip-trajectories to produce
only the closed-form datasets.
"""

import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE.parent / "out"


def cli(*args):
    cmd = [sys.executable, "-m", "qillum", *args]
    print("+", " ".join(cmd))
    subprocess.run(cmd, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-trajectories", action="store_true")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)

    # heralding probabilities and conditioned means vs nbar
    cli("herald-stats", "--grid", "lin:0.02:10:500", "--eta", "0.95",
        "--out", str(OUT / "herald_stats.csv"))

    # receiver click probabilities, low and high reflectivity
    cli("click-prob", "--grid", "lin:0.02:20:500", "--kappa", "0.1",
        "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9",
        "--out", str(OUT / "click_prob_k01.csv"))
    cli("click-prob", "--grid", "lin:0.02:20:500", "--kappa", "0.8",
        "--nbar-b", "10", "--eta", "0.9", "--eta-s", "0.9",
        "--out", str(OUT / "click_prob_k08.csv"))

    # click-probability matching table
    cli("match", "--grid", "lin:0:5:251", "--eta-e", "0.9",
        "--out", str(OUT / "matching.csv"))

    # Wigner slices: unconditioned vs two-click heralded, N = 2 and N = 10
    cli("wigner", "--state", "thermal", "--nbar", "1",
        "--out", str(OUT / "wigner_thermal.csv"))
    for detectors in (2, 10):
        cli("wigner", "--state", "herald", "--nbar", "1", "--eta", "0.9",
            "--detectors", str(detectors), "--clicks", "2",
            "--out", str(OUT / f"wigner_herald_n{detectors}_k2.csv"))

    if not args.skip_trajectories:
        cli("trajectories", "--config", str(HERE / "trajectories_run.json"),
            "--threads", str(args.threads),
            "--out", str(OUT / "trajectories_present.csv"))
        cli("trajectories", "--config", str(HERE / "matched_trajectories_run.json"),
            "--threads", str(args.threads),
            "--out", str(OUT / "trajectories_matched.csv"))


if __name__ == "__main__":
    main()
