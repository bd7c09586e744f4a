#!/usr/bin/env python3
"""Regenerate every figure-style dataset as CSV under out/.

Thin wrapper over the CLI so each dataset's exact invocation is on record.
Every command runs in this one process, so ``qillum`` must be importable
(``PYTHONPATH=src``), and the κ = 0.8 click-prob table reuses the herald
columns the κ = 0.1 table built.  Measured on a 2-core Xeon VM (Python
3.11.7, numpy 2.4.6), each trajectory config run alone took 7.6 s (4
ensembles) and 5.3 s (5 ensembles) on one thread, 4.8 s and 4.7 s with
--threads 2; pass --skip-trajectories to produce only the closed-form
datasets, a median of 0.37 s for the whole process over 10 runs (0.17 s of
it the seven commands, 45 ms of that the κ = 0.8 table).
"""

import argparse
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE.parent / "out"


def cli(*args):
    """Run one ``qillum`` command in this process; exit with its code if it fails."""
    from qillum.cli import main  # here, so loading this script does not need qillum

    print("+ python -m qillum", " ".join(args))
    code = main(list(args))
    if code:
        raise SystemExit(code)


def thread_count(text: str) -> int:
    """A --threads value, checked before the first command overwrites its table."""
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-trajectories", action="store_true")
    parser.add_argument("--threads", type=thread_count, default=1)
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
