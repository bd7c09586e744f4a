"""Command-line front end.

Every figure-style dataset is emitted as CSV (header row, comma separated,
12 significant digits, newline-terminated).  Each subcommand declares its
inputs once, in ``COMMANDS``: flag, config key, JSON type and default.  A value
comes from its flag, else the ``--config`` JSON document, else its default.
Unknown keys and wrong JSON types are rejected, and physical ranges are
enforced at parse time, before any work starts or any output file is opened,
by the library's own rules.  ``--seed`` and ``--threads`` exist only on
``trajectories``.

Exit codes: 0 success, 1 config or usage error, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import mc, verify
from .channel import TargetChannel, apply_channel, background_state, receiver_click_prob
from .errors import QillumError, TruncationError
from .matching import MatchSpec, coherent_click_prob, matched_mean, thermal_click_prob
from .povm import ClickMultiplex
from .states import (DisplacedThermal, check_efficiency, check_mean, check_outcome, herald_state,
                     mean_photon, tmsv_marginal, wigner_slice)

CSV_BLOCK_ROWS = 4096
REQUIRED = object()


class ConfigError(Exception):
    """Invalid command line, configuration document or parameter value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@contextmanager
def _blame(*names):
    """Report a ValueError raised inside as a ConfigError naming the inputs at fault."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{', '.join(names)}: {exc}") from exc


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns: integer columns as %d, all others as %.12g.

    Rows are formatted and written ``CSV_BLOCK_ROWS`` at a time, so the text
    of a whole table is never held at once.
    """
    columns = [np.asarray(column) for column in columns]
    integer = [column.dtype.kind in "iu" for column in columns]
    line = ",".join("%d" if is_int else "%.12g" for is_int in integer) + "\n"
    with _output(path, sys.stdout) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS] for c in columns]
            values = [c.tolist() if i else c.astype(float).tolist() for c, i in zip(block, integer)]
            handle.write("".join(line % row for row in zip(*values)))


@contextmanager
def _output(path, stream):
    """The file at ``path``, opened for writing, or ``stream`` when path is None."""
    if path is None:
        yield stream
        return
    with open(path, "w", newline="") as handle:
        yield handle


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as handle, _blame(f"--config {path}"):
        document = json.load(handle)
        return _require(isinstance(document, dict), document, "a JSON object")


# Readers take a JSON value (or a flag's converted text) and return the
# resolved value, or raise ValueError saying what the value must be.
def _require(ok: bool, value, what: str):
    if not ok:
        raise ValueError(f"must be {what}, got {value!r}")
    return value


def _number(value, allowed=lambda x: True, what="a number") -> float:
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return float(_require(numeric and allowed(value), value, what))


def _integer(value, least=-math.inf, most=math.inf) -> int:
    ok = isinstance(value, int) and not isinstance(value, bool) and least <= value <= most
    what = "an integer" if least == -math.inf else f"an integer >= {least}"
    return _require(ok, value, what if most == math.inf else f"an integer in [{least}, {most}]")


def _items(value, read, what: str) -> list:
    return [read(item) for item in _require(isinstance(value, list), value, f"a list of {what}")]


def _grid(value) -> list:
    """A JSON list of numbers, or text: a comma list or 'lin:start:stop:count'."""
    if isinstance(value, str) and value.startswith("lin:"):
        parts = value.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad linspace grid {value!r}; want lin:start:stop:count")
        value = np.linspace(float(parts[1]), float(parts[2]), int(parts[3])).tolist()
    elif isinstance(value, str):
        value = [float(v) for v in value.split(",")] if value else []
    nonnegative = partial(_number, allowed=lambda x: 0 <= x < math.inf, what="finite, >= 0")
    return _items(value, nonnegative, "numbers")


def _outcome(pair) -> tuple:
    """An [N, k] herald outcome, as ``check_outcome`` rules it."""
    n, k = map(_integer, _require(isinstance(pair, list) and len(pair) == 2, pair, "[N, k]"))
    check_outcome(n, k)
    return n, k


def _detectors(value) -> int:
    """A multiplex size N whose every outcome, up to N clicks, ``check_outcome`` allows."""
    n = _integer(value)
    check_outcome(n, n)
    return n


def _signal(entry) -> dict:
    """'coherent', an 'N,k' herald outcome, or {kind, herald_detectors, label}."""
    if isinstance(entry, str) and entry.count(",") == 1:
        n, k = _outcome([int(part) for part in entry.split(",")])
        return {"kind": "herald", "detectors": n, "clicks": k, "label": f"herald_{n}_{k}"}
    entry = {"kind": "coherent"} if entry == "coherent" else entry
    _require(isinstance(entry, dict), entry, "'coherent', 'N,k' or a signal object")
    unknown = set(entry) - {"kind", "herald_detectors", "label"}
    if unknown:
        raise ValueError(f"unknown signal keys: {', '.join(sorted(unknown))}")
    kind = mc.SignalKind(entry.get("kind")).value
    detectors = _integer(entry.get("herald_detectors", 1))
    prefix = "quantum" if kind == "quantum_heralded" else "matched"
    label = entry.get("label", "coherent" if kind == "coherent" else f"{prefix}_n{detectors}")
    # A label is a CSV header field, written unquoted.
    _require(isinstance(label, str) and not set(label) & set(',"\r\n'), label,
             "a string label without commas, quotes or line breaks")
    return {"kind": kind, "detectors": detectors, "label": label}


def _signals(value, kinds: tuple) -> list:
    signals = _items(value, _signal, "signals")
    _require(all(s["kind"] in kinds for s in signals), value, f"of kind {', '.join(kinds)}")
    labels = [s["label"] for s in signals]
    _require(labels and len(set(labels)) == len(labels), labels, "one or more distinct labels")
    return signals


class Kind(NamedTuple):
    """How an input is read: its reader and its flag's argparse options (a float by default)."""

    read: Callable
    flag: dict = {"type": float}


def _physical(rule) -> Kind:
    """A number whose range is the one ``rule(value)`` enforces by raising ValueError."""
    return Kind(partial(_number, allowed=lambda x: rule(x) is not None))


NUMBER = Kind(_number)
FINITE = Kind(partial(_number, allowed=math.isfinite, what="finite"))
POSITIVE = Kind(partial(_number, allowed=lambda x: 0 < x < math.inf, what="finite, > 0"))
INTEGER = Kind(_integer, {"type": int})
NATURAL = Kind(partial(_integer, least=0), {"type": int})
COUNT = Kind(partial(_integer, least=1), {"type": int})
SEED = Kind(partial(_integer, least=0, most=2**64 - 1), {"type": int})
DETECTORS = Kind(_detectors, {"type": int})
BOOLEAN = Kind(lambda value: _require(isinstance(value, bool), value, "true or false"))
SWITCH = BOOLEAN._replace(flag={"action": "store_true"})
TEXT = Kind(str, {})
GRID = Kind(_grid, {})
THRESHOLDS = Kind(lambda value: mc.check_thresholds(_items(
    value, partial(_number, allowed=lambda x: 0 < x < 1, what="in (0, 1)"), "numbers")))
# Physical ranges belong to the library: means and efficiencies call its rule
# functions; a range only one object owns is checked by building that object,
# with in-range values for its other fields.
MEAN = _physical(partial(check_mean, what="mean photon number"))
EFFICIENCY = _physical(check_efficiency)
REFLECTIVITY = _physical(lambda kappa: TargetChannel(kappa, 0.0))
BACKGROUND = _physical(partial(check_mean, what="background mean"))
EAVESDROPPER = _physical(lambda eta_e: MatchSpec(0.0, eta_e))


class Param(NamedTuple):
    """One input: ``flag`` > config ``key`` > ``default`` (None: absent)."""

    key: str  # also the name of the resolved value
    flag: str | None
    kind: Kind
    default: object = REQUIRED
    help: str | None = None
    config: bool = True


GRID_HELP = "grid: comma list or lin:start:stop:count"
OUT = Param("out", "--out", TEXT, None, "output CSV path (default: stdout)", config=False)


def _resolve(name: str, command, args) -> SimpleNamespace:
    """Apply flag > config > default to every parameter, then the command's build step."""
    given = vars(args)
    document = _load_config(given.get("config"))
    for problem, keys in (
        ("unknown", set(document) - {p.key for p in command.params if p.config}),
        ("missing", {p.key for p in command.params if p.default is REQUIRED} - set(document)),
    ):
        if keys:
            raise ConfigError(f"{problem} {name} config keys: {', '.join(sorted(keys))}")
    values = SimpleNamespace(named={})
    for p in command.params:
        value = given.get(p.key, document.get(p.key, p.default))
        source = p.flag if p.key in given else p.key if p.key in document else p.flag or p.key
        values.named[p.key] = source
        with _blame(source):
            setattr(values, p.key, None if value is None else p.kind.read(value))
    if command.build is not None:
        command.build(values)
    return values


def cmd_herald_stats(v) -> int:
    """Heralding probabilities and conditioned means over an nbar grid."""
    names = [f"{n}_{k}" for n, k in v.outcomes]
    header = ["nbar"] + [f"pr_{name}" for name in names] + [f"mean_{name}" for name in names]
    probabilities, means = [], []
    for n, k in v.outcomes:
        heralded = [herald_state(nbar, v.eta, n, k) for nbar in v.nbar_grid]
        probabilities.append([h.herald_probability for h in heralded])
        means.append([mean_photon(h.state) for h in heralded])
    _write_csv(v.out, header, [v.nbar_grid, *probabilities, *means])
    return 0


def cmd_click_prob(v) -> int:
    """Receiver single-click probabilities under H1 for a family of signals."""
    channel = TargetChannel(v.kappa, v.nbar_b)
    receiver = ClickMultiplex(1, v.eta_s)
    pr_h0 = receiver_click_prob(receiver, 1, background_state(channel))
    header = ["nbar", "pr_h0"] + [f"pr_{s['label']}" for s in v.signals]
    columns = [v.nbar_grid, [pr_h0] * len(v.nbar_grid)]
    for sig in v.signals:
        column = []
        for nbar in v.nbar_grid:
            if sig["kind"] == "coherent":
                signal = DisplacedThermal(nbar, 0.0)
            else:
                signal = herald_state(nbar, v.eta, sig["detectors"], sig["clicks"]).state
            column.append(receiver_click_prob(receiver, 1, apply_channel(channel, signal)))
        columns.append(column)
    _write_csv(v.out, header, columns)
    return 0


def _build_match(v) -> None:
    with _blame(v.named["nbar_alpha_grid"], v.named["eta_e"]):
        v.specs = [MatchSpec(nbar_alpha, v.eta_e) for nbar_alpha in v.nbar_alpha_grid]


def cmd_match(v) -> int:
    """Click-probability matching table over a coherent-mean grid."""
    matched = [matched_mean(spec) for spec in v.specs]
    coherent = [coherent_click_prob(nbar_alpha, v.eta_e) for nbar_alpha in v.nbar_alpha_grid]
    thermal = [thermal_click_prob(nbar, v.eta_e) for nbar in matched]
    header = ["nbar_alpha", "matched_nbar", "coherent_click", "matched_thermal_click", "residual"]
    residual = [th - coh for th, coh in zip(thermal, coherent)]
    _write_csv(v.out, header, [v.nbar_alpha_grid, matched, coherent, thermal, residual])
    return 0


def _build_wigner(v) -> None:
    with _blame(v.named["nbar"], v.named["detectors"], v.named["clicks"]):
        v.model = (herald_state(v.nbar, v.eta, v.detectors, v.clicks).state
                   if v.state == "herald" else tmsv_marginal(v.nbar))


def cmd_wigner(v) -> int:
    """W(q, 0) slice of a thermal or heralded state."""
    q = np.linspace(v.q_min, v.q_max, v.q_points)
    _write_csv(v.out, ["q", "w"], [q, wigner_slice(v.model, q)])
    return 0


def _build_trajectories(v) -> None:
    """Build every signal's TrajectoryConfig before any run."""
    v.configs = {}
    for index, sig in enumerate(v.signals):
        with _blame(f"{v.named['signals']}[{index}]"):
            v.configs[sig["label"]] = mc.TrajectoryConfig(
                nbar=v.nbar, herald_efficiency=v.eta, herald_detectors=sig["detectors"],
                receiver_efficiency=v.eta_s, receiver_detectors=v.receiver_detectors,
                reflectivity=v.kappa, background_mean=v.nbar_b, shots=v.shots,
                trials=v.trials, seed=v.seed, signal_kind=sig["kind"],
                target_present=v.target_present, eavesdropper_efficiency=v.eta_e,
            )


def cmd_trajectories(v) -> int:
    """Ensemble-averaged detection trajectories for one or more signal kinds."""
    ensembles = mc.average_trajectories(
        list(v.configs.values()), threads=v.threads, thresholds=v.thresholds
    )
    results = dict(zip(v.configs, ensembles))
    header = ["shot_index"] + [f"mean_posterior_{label}" for label in results]
    columns = [np.arange(1, v.shots + 1)] + [r.mean_posterior for r in results.values()]
    _write_csv(v.out, header, columns)

    first = next(iter(results.values())).rng_metadata
    sidecar = {
        "seed": v.seed, "trials": v.trials, "shots": v.shots, "threads": v.threads,
        "generator": first["generator"], "stream_derivation": first["stream_derivation"],
        "signals": {
            label: {
                "probe_nbar": result.rng_metadata["probe_nbar"],
                "mean_curve_crossings": {str(t): result.mean_crossings[t] for t in v.thresholds},
            }
            for label, result in results.items()
        },
    }
    meta = None if v.out is None else str(v.out) + ".meta.json"
    with _output(meta, sys.stderr) as handle:
        handle.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(v) -> int:
    """Oracle equivalence sweep; exit 0 only if every comparison passes."""
    try:
        report = verify.run_verification(v.tolerance, v.quick, v.n_max, v.selftest_perturb)
    except TruncationError as exc:
        print(f"FAIL  truncation-insufficient: {exc}", file=sys.stderr)
        return 3
    for line in report.lines():
        print(line)
    for check in report.checks:
        print(check.worst_line(), file=sys.stderr)
    return 0 if report.passed else 3


class Command(NamedTuple):
    run: Callable  # its docstring is the subcommand's help
    params: tuple
    build: Callable | None = None  # cross-parameter checks, after every value is read
    config: bool = True  # takes --config


COMMANDS = {
    "herald-stats": Command(cmd_herald_stats, (
        Param("nbar_grid", "--grid", GRID, [], GRID_HELP),
        Param("eta", "--eta", EFFICIENCY, 0.95, "herald detector efficiency"),
        Param("outcomes", None, Kind(partial(_items, read=_outcome, what="[N, k] pairs")),
              [[1, 0], [1, 1], [2, 1], [2, 2], [4, 4]]),
        OUT,
    )),
    "click-prob": Command(cmd_click_prob, (
        Param("nbar_grid", "--grid", GRID, [], GRID_HELP),
        Param("kappa", "--kappa", REFLECTIVITY, 0.1, "target reflectivity"),
        Param("nbar_b", "--nbar-b", BACKGROUND, 10.0, "background mean"),
        Param("eta", "--eta", EFFICIENCY, 0.9, "herald efficiency"),
        Param("eta_s", "--eta-s", EFFICIENCY, 0.9, "receiver efficiency"),
        Param("signals", None, Kind(partial(_signals, kinds=("coherent", "herald"))),
              ["coherent", "1,0", "2,1", "1,1", "2,2", "4,4"]),
        OUT,
    )),
    "match": Command(cmd_match, (
        Param("nbar_alpha_grid", "--grid", GRID, [], GRID_HELP),
        Param("eta_e", "--eta-e", EAVESDROPPER, 0.9, "eavesdropper efficiency"),
        OUT,
    ), _build_match),
    "wigner": Command(cmd_wigner, (
        Param("state", "--state", Kind(str, {"choices": ["thermal", "herald"]}), "thermal"),
        Param("nbar", "--nbar", MEAN, 0.0),
        Param("eta", "--eta", EFFICIENCY, 0.9),
        Param("detectors", "--detectors", COUNT, 2),
        Param("clicks", "--clicks", INTEGER, 2),
        Param("q_min", "--q-min", FINITE, -4.0),
        Param("q_max", "--q-max", FINITE, 4.0),
        Param("q_points", "--q-points", COUNT, 161),
        OUT,
    ), _build_wigner, config=False),
    "trajectories": Command(cmd_trajectories, (
        Param("nbar", None, MEAN),
        Param("eta", None, EFFICIENCY, 0.9),
        Param("eta_s", None, EFFICIENCY, 0.9),
        Param("receiver_detectors", None, DETECTORS, 1),
        Param("kappa", None, REFLECTIVITY, 0.1),
        Param("nbar_b", None, BACKGROUND, 3.0),
        Param("shots", None, COUNT),
        Param("trials", None, COUNT),
        Param("seed", "--seed", SEED, 0, "64-bit RNG seed override"),
        Param("target_present", None, BOOLEAN, True),
        Param("eta_e", None, EAVESDROPPER, 0.9),
        Param("thresholds", None, THRESHOLDS, [0.8, 0.9]),
        Param("signals", None, Kind(partial(_signals, kinds=[k.value for k in mc.SignalKind]))),
        Param("threads", "--threads", COUNT, 1, "worker threads", config=False),
        OUT,
    ), _build_trajectories),
    "verify": Command(cmd_verify, (
        Param("tolerance", "--tolerance", POSITIVE, verify.CLOSED_FORM_TOL,
              "closed-form comparison tolerance (end-to-end and Wigner: 10x)"),
        Param("n_max", "--n-max", NATURAL, None, "override Fock truncation"),
        Param("quick", "--quick", SWITCH, False, "reduced grid"),
        Param("selftest_perturb", "--selftest-perturb", NUMBER, 0.0,
              "inject this offset into one closed form (sensitivity self-test)"),
    ), config=False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qillum",
                     description="Quantum illumination with multiplexed click photodetection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__, argument_default=argparse.SUPPRESS)
        if command.config:
            p.add_argument("--config", help="JSON config document")
        for param in command.params:
            if param.flag is not None:
                p.add_argument(param.flag, dest=param.key, help=param.help, **param.kind.flag)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        return command.run(_resolve(args.command, command, args))
    except ConfigError as exc:
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
