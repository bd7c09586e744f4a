"""Command-line front end.

Every figure-style dataset is emitted as CSV (header row, comma separated,
12 significant digits, newline-terminated) so any plotting tool can reproduce
the curves.  Config files are JSON documents with a strict schema: unknown
keys are rejected and physical ranges are enforced at parse time.  CLI flags
override config fields.

Exit codes: 0 success, 1 config error, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import mc, verify
from .channel import TargetChannel, apply_channel, background_state, receiver_click_prob
from .errors import QillumError, TruncationError
from .matching import MatchSpec, coherent_click_prob, matched_mean, thermal_click_prob
from .povm import ClickMultiplex
from .states import DisplacedThermal, herald_state, mean_photon, tmsv_marginal, wigner_slice

ENV_THREADS = "QILLUM_THREADS"


class ConfigError(Exception):
    """Invalid configuration document or flag combination."""


@contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", newline="") as handle:
        yield handle


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns: integer columns as %d, all others as %.12g."""
    columns = [np.asarray(column) for column in columns]
    integer = [column.dtype.kind in "iu" for column in columns]
    line = ",".join("%d" if is_int else "%.12g" for is_int in integer) + "\n"
    values = [
        column.tolist() if is_int else column.astype(float).tolist()
        for column, is_int in zip(columns, integer)
    ]
    body = "".join(line % row for row in zip(*values))
    with _open_out(path) as handle:
        handle.write(",".join(header) + "\n" + body)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def _check_keys(document: dict, allowed: set, context: str) -> None:
    unknown = set(document) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(sorted(unknown))}")


def _check_nonnegative(grid, what: str) -> None:
    for value in grid:
        if value < 0:
            raise ConfigError(f"{what} must be nonnegative, got {value}")


def _parse_grid(spec) -> list:
    """Grid syntax: JSON list of numbers, or 'lin:start:stop:count'."""
    if isinstance(spec, (list, tuple)):
        return [float(v) for v in spec]
    if isinstance(spec, str):
        if spec.startswith("lin:"):
            parts = spec.split(":")
            if len(parts) != 4:
                raise ConfigError(f"bad linspace grid {spec!r}; want lin:start:stop:count")
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
            if count < 0:
                raise ConfigError("grid count must be nonnegative")
            return np.linspace(start, stop, count).tolist()
        if spec == "":
            return []
        return [float(v) for v in spec.split(",")]
    raise ConfigError(f"cannot parse grid from {spec!r}")


def _parse_signal(entry, default_detectors):
    """Signal spec: 'coherent', 'N,k' herald pair, or {kind, herald_detectors}."""
    if isinstance(entry, str):
        if entry == "coherent":
            return {"kind": "coherent", "label": "coherent"}
        parts = entry.split(",")
        if len(parts) == 2:
            n, k = int(parts[0]), int(parts[1])
            return {"kind": "herald", "detectors": n, "clicks": k, "label": f"herald_{n}_{k}"}
        raise ConfigError(f"cannot parse signal {entry!r}")
    if isinstance(entry, dict):
        _check_keys(entry, {"kind", "herald_detectors", "label"}, "signal")
        kind = entry.get("kind")
        if kind not in {"quantum_heralded", "coherent", "quantum_heralded_matched"}:
            raise ConfigError(f"unknown signal kind {kind!r}")
        detectors = int(entry.get("herald_detectors", default_detectors))
        label = entry.get("label")
        if label is None:
            if kind == "coherent":
                label = "coherent"
            elif kind == "quantum_heralded":
                label = f"quantum_n{detectors}"
            else:
                label = f"matched_n{detectors}"
        return {"kind": kind, "detectors": detectors, "label": str(label)}
    raise ConfigError(f"cannot parse signal {entry!r}")


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        value = args.threads
    else:
        raw = os.environ.get(ENV_THREADS)
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"thread count must be positive, got {value}")
    return value


def cmd_herald_stats(args) -> int:
    """Heralding probabilities and conditioned means over an nbar grid."""
    config = _load_config(args.config)
    _check_keys(config, {"nbar_grid", "eta", "outcomes"}, "herald-stats")
    grid = _parse_grid(args.grid if args.grid is not None else config.get("nbar_grid", []))
    eta = float(args.eta if args.eta is not None else config.get("eta", 0.95))
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    outcomes = config.get("outcomes", [[1, 0], [1, 1], [2, 1], [2, 2], [4, 4]])
    pairs = []
    for item in outcomes:
        n, k = int(item[0]), int(item[1])
        if not (1 <= n and 0 <= k <= n):
            raise ConfigError(f"bad herald outcome ({n}, {k})")
        pairs.append((n, k))

    _check_nonnegative(grid, "nbar grid values")
    header = ["nbar"]
    header += [f"pr_{n}_{k}" for n, k in pairs]
    header += [f"mean_{n}_{k}" for n, k in pairs]
    probabilities, means = [], []
    for n, k in pairs:
        heralded = (herald_state(nbar, eta, n, k) for nbar in grid)
        stats = [(h.herald_probability, mean_photon(h)) for h in heralded]
        probabilities.append([p for p, _ in stats])
        means.append([m for _, m in stats])
    _write_csv(args.out, header, [grid, *probabilities, *means])
    return 0


def cmd_click_prob(args) -> int:
    """Receiver single-click probabilities under H1 for a family of signals."""
    config = _load_config(args.config)
    allowed = {"nbar_grid", "kappa", "nbar_b", "eta", "eta_s", "signals"}
    _check_keys(config, allowed, "click-prob")
    grid = _parse_grid(args.grid if args.grid is not None else config.get("nbar_grid", []))
    kappa = float(args.kappa if args.kappa is not None else config.get("kappa", 0.1))
    nbar_b = float(args.nbar_b if args.nbar_b is not None else config.get("nbar_b", 10.0))
    eta = float(args.eta if args.eta is not None else config.get("eta", 0.9))
    eta_s = float(args.eta_s if args.eta_s is not None else config.get("eta_s", 0.9))
    signals = config.get("signals", ["coherent", "1,0", "2,1", "1,1", "2,2", "4,4"])
    parsed = [_parse_signal(s, 1) for s in signals]

    try:
        channel = TargetChannel(kappa, nbar_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    receiver = ClickMultiplex(1, eta_s)
    h0 = background_state(channel)
    pr_h0 = receiver_click_prob(receiver, 1, h0)

    _check_nonnegative(grid, "nbar grid values")
    header = ["nbar", "pr_h0"] + [f"pr_{s['label']}" for s in parsed]
    columns = [grid, [pr_h0] * len(grid)]
    for sig in parsed:
        column = []
        for nbar in grid:
            if sig["kind"] == "coherent":
                h1 = apply_channel(channel, DisplacedThermal(nbar, 0.0))
            else:
                conditioned = herald_state(nbar, eta, sig["detectors"], sig["clicks"])
                h1 = apply_channel(channel, conditioned)
            column.append(receiver_click_prob(receiver, 1, h1))
        columns.append(column)
    _write_csv(args.out, header, columns)
    return 0


def cmd_match(args) -> int:
    """Click-probability matching table over a coherent-mean grid."""
    config = _load_config(args.config)
    _check_keys(config, {"nbar_alpha_grid", "eta_e"}, "match")
    grid = _parse_grid(
        args.grid if args.grid is not None else config.get("nbar_alpha_grid", [])
    )
    eta_e = float(args.eta_e if args.eta_e is not None else config.get("eta_e", 0.9))
    if not (0.0 < eta_e <= 1.0):
        raise ConfigError(f"eta_e must lie in (0, 1], got {eta_e}")

    _check_nonnegative(grid, "nbar_alpha")
    matched = [matched_mean(MatchSpec(nbar_alpha, eta_e)) for nbar_alpha in grid]
    coherent = [coherent_click_prob(nbar_alpha, eta_e) for nbar_alpha in grid]
    thermal = [thermal_click_prob(nbar, eta_e) for nbar in matched]
    header = ["nbar_alpha", "matched_nbar", "coherent_click", "matched_thermal_click", "residual"]
    residual = [th - coh for th, coh in zip(thermal, coherent)]
    _write_csv(args.out, header, [grid, matched, coherent, thermal, residual])
    return 0


def cmd_wigner(args) -> int:
    """W(q, 0) slice of a thermal or heralded state."""
    if args.q_points < 1:
        raise ConfigError(f"q-points must be positive, got {args.q_points}")
    q = np.linspace(args.q_min, args.q_max, args.q_points)
    if args.state == "thermal":
        state = tmsv_marginal(args.nbar)
    elif args.state == "herald":
        state = herald_state(args.nbar, args.eta, args.detectors, args.clicks).state
    else:
        raise ConfigError(f"unknown state kind {args.state!r}")
    values = wigner_slice(state, q)
    _write_csv(args.out, ["q", "w"], [q, values])
    return 0


_TRAJECTORY_KEYS = {
    "nbar", "eta", "eta_s", "receiver_detectors", "kappa", "nbar_b",
    "shots", "trials", "seed", "target_present", "eta_e", "thresholds", "signals",
}


def cmd_trajectories(args) -> int:
    """Ensemble-averaged detection trajectories for one or more signal kinds."""
    if args.config is None:
        raise ConfigError("trajectories requires --config with a run document")
    document = _load_config(args.config)
    _check_keys(document, _TRAJECTORY_KEYS, "trajectories")
    missing = {"nbar", "shots", "trials", "signals"} - set(document)
    if missing:
        raise ConfigError(f"trajectories config lacks keys: {', '.join(sorted(missing))}")

    seed = int(args.seed if args.seed is not None else document.get("seed", 0))
    thresholds = tuple(float(t) for t in document.get("thresholds", [0.8, 0.9]))
    threads = _resolve_threads(args)
    signals = [_parse_signal(s, 1) for s in document["signals"]]
    for sig in signals:
        if sig["kind"] == "herald":
            raise ConfigError(
                "trajectories signals must be one of quantum_heralded, coherent, "
                "quantum_heralded_matched"
            )

    results = {}
    for sig in signals:
        try:
            config = mc.TrajectoryConfig(
                nbar=float(document["nbar"]),
                herald_efficiency=float(document.get("eta", 0.9)),
                herald_detectors=int(sig.get("detectors", 1)),
                receiver_efficiency=float(document.get("eta_s", 0.9)),
                receiver_detectors=int(document.get("receiver_detectors", 1)),
                reflectivity=float(document.get("kappa", 0.1)),
                background_mean=float(document.get("nbar_b", 3.0)),
                shots=int(document["shots"]),
                trials=int(document["trials"]),
                seed=seed,
                signal_kind=mc.SignalKind(sig["kind"]),
                target_present=bool(document.get("target_present", True)),
                eavesdropper_efficiency=float(document.get("eta_e", 0.9)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        results[sig["label"]] = mc.average_trajectories(config, threads=threads, thresholds=thresholds)

    labels = [s["label"] for s in signals]
    header = ["shot_index"] + [f"mean_posterior_{label}" for label in labels]
    shots = int(document["shots"])
    columns = [np.arange(1, shots + 1)] + [results[label].mean_posterior for label in labels]
    _write_csv(args.out, header, columns)

    sidecar = {
        "seed": seed,
        "trials": int(document["trials"]),
        "shots": shots,
        "threads": threads,
        "generator": results[labels[0]].rng_metadata["generator"],
        "stream_derivation": results[labels[0]].rng_metadata["stream_derivation"],
        "signals": {
            label: {
                "probe_nbar": results[label].rng_metadata["probe_nbar"],
                "mean_curve_crossings": {
                    str(thr): results[label].mean_crossings[thr] for thr in thresholds
                },
            }
            for label in labels
        },
    }
    if args.out is not None:
        with open(str(args.out) + ".meta.json", "w") as handle:
            json.dump(sidecar, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        print(json.dumps(sidecar, indent=2, sort_keys=True), file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    """Oracle equivalence sweep; exit 0 only if every comparison passes."""
    closed_tol = args.tolerance if args.tolerance is not None else verify.CLOSED_FORM_TOL
    end_tol = 10.0 * closed_tol if args.tolerance is not None else verify.END_TO_END_TOL
    try:
        report = verify.run_verification(
            closed_tol=closed_tol,
            end_to_end_tol=end_tol,
            wigner_tol=end_tol,
            quick=args.quick,
            n_max=args.n_max,
            perturbation=args.selftest_perturb,
        )
    except TruncationError as exc:
        print(f"FAIL  truncation-insufficient: {exc}", file=sys.stderr)
        return 3
    for line in report.lines():
        print(line)
    if not report.passed:
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Quantum illumination with multiplexed click photodetection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_flag=True):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="64-bit RNG seed override")
        p.add_argument("--threads", type=int, help=f"worker threads (or ${ENV_THREADS})")
        if grid_flag:
            p.add_argument("--grid", help="grid: comma list or lin:start:stop:count")

    p = sub.add_parser("herald-stats", help="heralding probabilities and conditioned means")
    common(p)
    p.add_argument("--eta", type=float, help="herald detector efficiency")
    p.set_defaults(func=cmd_herald_stats)

    p = sub.add_parser("click-prob", help="receiver click probabilities under H1")
    common(p)
    p.add_argument("--kappa", type=float, help="target reflectivity")
    p.add_argument("--nbar-b", dest="nbar_b", type=float, help="background mean")
    p.add_argument("--eta", type=float, help="herald efficiency")
    p.add_argument("--eta-s", dest="eta_s", type=float, help="receiver efficiency")
    p.set_defaults(func=cmd_click_prob)

    p = sub.add_parser("match", help="click-probability matching table")
    common(p)
    p.add_argument("--eta-e", dest="eta_e", type=float, help="eavesdropper efficiency")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("wigner", help="Wigner function slice W(q, 0)")
    common(p, grid_flag=False)
    p.add_argument("--state", choices=["thermal", "herald"], default="thermal")
    p.add_argument("--nbar", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.9)
    p.add_argument("--detectors", type=int, default=2)
    p.add_argument("--clicks", type=int, default=2)
    p.add_argument("--q-min", dest="q_min", type=float, default=-4.0)
    p.add_argument("--q-max", dest="q_max", type=float, default=4.0)
    p.add_argument("--q-points", dest="q_points", type=int, default=161)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("trajectories", help="sequential detection trajectory ensembles")
    common(p, grid_flag=False)
    p.set_defaults(func=cmd_trajectories)

    p = sub.add_parser("verify", help="oracle equivalence sweep")
    common(p, grid_flag=False)
    p.add_argument("--tolerance", type=float, help="closed-form comparison tolerance")
    p.add_argument("--n-max", dest="n_max", type=int, help="override Fock truncation")
    p.add_argument("--quick", action="store_true", help="reduced grid")
    p.add_argument(
        "--selftest-perturb",
        type=float,
        default=0.0,
        help="inject this offset into one closed form (sensitivity self-test)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QillumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
