"""Command-line front end.

Every figure-style dataset is emitted as CSV (header row, comma separated,
12 significant digits, newline-terminated).  Each subcommand declares its
inputs once, in ``COMMANDS``: flag, config key, JSON type and default.  A value
comes from its flag, else the ``--config`` JSON document, else its default.
Unknown keys and wrong JSON types are rejected, and physical ranges are
enforced by the library's own rules before any output file is opened: each
value as it is read, and values that are checked together (a matched mean, a
herald state, a trajectory config) at the top of their command.
``--threads`` exists only on ``trajectories``, whose seed is the config key
``seed`` alone.

Exit codes: 0 success, 1 config or usage error, 2 I/O error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from functools import cache, lru_cache, partial
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import mc, verify
from .channel import TargetChannel, apply_channel, background_state, channel_images
from .errors import QillumError, TruncationError
from .matching import coherent_click_prob, matched_mean, thermal_click_prob
from .povm import ClickMultiplex, click_probabilities, click_probability
from .states import (DisplacedThermal, check_efficiency, check_mean, check_outcome, herald_state,
                     herald_states, mean_photon, tmsv_marginal, wigner_slice)

CSV_BLOCK_ROWS = 512
REQUIRED = object()
# click-prob herald columns kept per process (the default table has five): a
# second table on the same grid, herald efficiency and outcomes reuses them.
HERALD_COLUMNS_KEPT = 8


class ConfigError(Exception):
    """Invalid command line, configuration document or parameter value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@contextmanager
def _blame(*names):
    """Report a ValueError, QillumError or MemoryError inside as a ConfigError naming the inputs."""
    try:
        yield
    except (ValueError, QillumError, MemoryError) as exc:
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
            handle.write("".join(map(line.__mod__, zip(*(c.tolist() for c in block)))))


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
    try:
        return float(_require(numeric and allowed(value), value, what))
    except OverflowError:  # an int past the largest double
        raise ValueError(f"must be {what}, got {value!r}") from None


def _integer(value, least=-math.inf, most=math.inf) -> int:
    ok = isinstance(value, int) and not isinstance(value, bool) and least <= value <= most
    what = "an integer" if least == -math.inf else f"an integer >= {least}"
    return _require(ok, value, what if most == math.inf else f"an integer in [{least}, {most}]")


def _items(value, read, what: str) -> list:
    return [read(item) for item in _require(isinstance(value, list), value, f"a list of {what}")]


def _checked_span(start: float, stop: float, read, names=("start", "stop")) -> tuple:
    """``(start, stop)`` of a linspace, once ``read`` passes both and stop - start is finite.

    numpy's linspace over an infinite span warns and returns inf or NaN.
    """
    for name, end in zip(names, (start, stop)):
        try:
            read(end)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    if not math.isfinite(stop - start):
        raise ValueError(f"span {names[1]} - {names[0]} must be finite, got {stop - start}")
    return start, stop


def _linspace(start: float, stop: float, count: int) -> list:
    """``np.linspace`` over a ``_checked_span`` as a list of floats."""
    # (count - 1) * step may round past the largest double; numpy then sets that point to stop
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, count).tolist()


def _grid(value) -> list:
    """A JSON list of numbers, or text: a comma list or 'lin:start:stop:count'."""
    nonnegative = partial(_number, allowed=lambda x: 0 <= x < math.inf, what="finite, >= 0")
    if isinstance(value, str) and value.startswith("lin:"):
        parts = value.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad linspace grid {value!r}; want lin:start:stop:count")
        span = _checked_span(_parsed(parts[1]), _parsed(parts[2]), nonnegative)
        try:
            count = _integer(_parsed(parts[3], int), least=0)
        except ValueError as exc:
            raise ValueError(f"count {exc}") from None
        value = _linspace(*span, count)
    elif isinstance(value, str):
        value = [_parsed(v) for v in value.split(",")] if value else []
    return _items(value, nonnegative, "numbers")


def _parsed(text: str, convert=float):
    """``convert(text)``, or the text itself when it is no such number: the reader names it."""
    try:
        return convert(text)
    except ValueError:
        return text


def _outcome(pair) -> tuple:
    """An [N, k] herald outcome, as ``check_outcome`` rules it."""
    n, k = map(_integer, _require(isinstance(pair, list) and len(pair) == 2, pair, "[N, k]"))
    check_outcome(n, k)
    return n, k


def _outcomes(value) -> list:
    """One or more distinct [N, k] herald outcomes: each names a pair of CSV columns."""
    outcomes = _items(value, _outcome, "[N, k] pairs")
    _require(outcomes, value, "one or more [N, k] pairs")
    return _require(len(set(outcomes)) == len(outcomes), value, "distinct [N, k] pairs")


def _detectors(value) -> int:
    """A multiplex size N whose every outcome, up to N clicks, ``check_outcome`` allows."""
    n = _integer(value)
    check_outcome(n, n)
    return n


# The trajectories signal kinds: mc's two probes, and a heralded probe brightened
# until a single-click eavesdropper of efficiency eta_e sees a coherent probe's
# click rate, which cmd_trajectories runs as quantum_heralded at that mean.
SIGNAL_KINDS = ("quantum_heralded", "coherent", "quantum_heralded_matched")


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
    kind = entry.get("kind")
    _require(kind in SIGNAL_KINDS, kind, f"a signal kind, one of {', '.join(SIGNAL_KINDS)}")
    if kind == "coherent" and "herald_detectors" in entry:
        raise ValueError("a coherent signal heralds nothing: it takes no herald_detectors")
    detectors = _integer(entry.get("herald_detectors", 1))
    prefix = "quantum" if kind == "quantum_heralded" else "matched"
    label = entry.get("label", "coherent" if kind == "coherent" else f"{prefix}_n{detectors}")
    # A label is a CSV header field, written unquoted.
    _require(isinstance(label, str) and not set(label) & set(',"\r\n'), label,
             "a string label without commas, quotes or line breaks")
    return {"kind": kind, "detectors": detectors, "label": label}


def check_thresholds(thresholds: Sequence[float]) -> tuple[float, ...]:
    """Distinct crossing thresholds in (0, 1) as floats: crossings are keyed by value."""
    values = tuple(float(t) for t in thresholds)
    if not all(0.0 < t < 1.0 for t in values):
        raise ValueError(f"thresholds must lie in (0, 1), got {list(values)}")
    if len(set(values)) != len(values):
        raise ValueError(f"thresholds must be distinct, got {list(values)}")
    return values


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
INTEGER = Kind(_integer, {"type": int})
COUNT = Kind(partial(_integer, least=1), {"type": int})
SEED = Kind(partial(_integer, least=0, most=2**64 - 1), {"type": int})
DETECTORS = Kind(_detectors, {"type": int})
BOOLEAN = Kind(lambda value: _require(isinstance(value, bool), value, "true or false"))
SWITCH = BOOLEAN._replace(flag={"action": "store_true"})
TEXT = Kind(str, {})
GRID = Kind(_grid, {})
THRESHOLDS = Kind(lambda value: check_thresholds(_items(value, _number, "numbers")))
# Physical ranges belong to the library: means and efficiencies call its rule
# functions; a range only one object owns is checked by building that object,
# with in-range values for its other fields.
MEAN = _physical(partial(check_mean, what="mean photon number"))
EFFICIENCY = _physical(check_efficiency)
REFLECTIVITY = _physical(lambda kappa: TargetChannel(kappa, 0.0))
BACKGROUND = _physical(partial(check_mean, what="background mean"))
EAVESDROPPER = _physical(lambda eta_e: matched_mean(0.0, eta_e))


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
    """Apply flag > config > default to every parameter."""
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
    return values


def cmd_herald_stats(v) -> int:
    """Heralding probabilities and conditioned means over an nbar grid."""
    names = [f"{n}_{k}" for n, k in v.outcomes]
    header = ["nbar"] + [f"pr_{name}" for name in names] + [f"mean_{name}" for name in names]
    probabilities, means = [], []
    for n, k in v.outcomes:
        heralded = herald_states(v.nbar_grid, v.eta, n, k)
        probabilities.append([h.herald_probability for h in heralded])
        means.append([mean_photon(h.state) for h in heralded])
    _write_csv(v.out, header, [v.nbar_grid, *probabilities, *means])
    return 0


@lru_cache(maxsize=HERALD_COLUMNS_KEPT)
def _herald_column(grid: tuple, eta: str, detectors: int, clicks: int) -> tuple:
    """The herald-conditioned states of one click-prob column, built once per process.

    The grid means and ``eta`` come as ``float.hex`` strings, so the key holds
    their exact bits (0.0 and -0.0 are two keys).  A column that raises is not
    kept, and raises again on the next call.
    """
    nbars = list(map(float.fromhex, grid))
    return tuple(h.state for h in herald_states(nbars, float.fromhex(eta), detectors, clicks))


def cmd_click_prob(v) -> int:
    """Receiver single-click probabilities under H1 for a family of signals."""
    channel = TargetChannel(v.kappa, v.nbar_b)
    receiver = ClickMultiplex(1, v.eta_s)
    pr_h0 = click_probability(receiver, 1, background_state(channel))
    header = ["nbar", "pr_h0"] + [f"pr_{s['label']}" for s in v.signals]
    columns = [v.nbar_grid, [pr_h0] * len(v.nbar_grid)]
    grid = tuple(map(float.hex, v.nbar_grid))
    for sig in v.signals:
        if sig["kind"] == "coherent":
            images = [apply_channel(channel, DisplacedThermal(nbar, 0.0)) for nbar in v.nbar_grid]
        else:
            states = _herald_column(grid, v.eta.hex(), sig["detectors"], sig["clicks"])
            # an image mean kappa * m + n_B can overflow for a grid mean and background in range
            with _blame(v.named["nbar_grid"], v.named["kappa"], v.named["nbar_b"]):
                images = channel_images((channel, state) for state in states)
        columns.append(click_probabilities(receiver, 1, images))
    _write_csv(v.out, header, columns)
    return 0


def cmd_match(v) -> int:
    """Click-probability matching table over a coherent-mean grid."""
    with _blame(v.named["nbar_alpha_grid"], v.named["eta_e"]):
        matched = [matched_mean(nbar_alpha, v.eta_e) for nbar_alpha in v.nbar_alpha_grid]
    coherent = [coherent_click_prob(nbar_alpha, v.eta_e) for nbar_alpha in v.nbar_alpha_grid]
    thermal = [thermal_click_prob(nbar, v.eta_e) for nbar in matched]
    header = ["nbar_alpha", "matched_nbar", "coherent_click", "matched_thermal_click", "residual"]
    residual = [th - coh for th, coh in zip(thermal, coherent)]
    _write_csv(v.out, header, [v.nbar_alpha_grid, matched, coherent, thermal, residual])
    return 0


def cmd_wigner(v) -> int:
    """W(q, 0) slice of a thermal or heralded state."""
    with _blame(v.named["nbar"], v.named["eta"], v.named["detectors"], v.named["clicks"]):
        model = (herald_state(v.nbar, v.eta, v.detectors, v.clicks).state
                 if v.state == "herald" else tmsv_marginal(v.nbar))
    with _blame(v.named["q_min"], v.named["q_max"]):
        span = _checked_span(v.q_min, v.q_max, FINITE.read, ("q_min", "q_max"))
    q = _linspace(*span, v.q_points)
    with _blame(v.named["nbar"]):  # a mean past about 2.9e307 has no finite Wigner norm
        w = wigner_slice(model, q)
    _write_csv(v.out, ["q", "w"], [q, w])
    return 0


def cmd_trajectories(v) -> int:
    """Ensemble-averaged detection trajectories for one or more signal kinds."""
    configs = {}  # every signal's config is built before any run
    for index, sig in enumerate(v.signals):
        with _blame(f"{v.named['signals']}[{index}]"):
            kind, nbar = sig["kind"], v.nbar
            if kind == "quantum_heralded_matched":
                kind, nbar = "quantum_heralded", matched_mean(v.nbar, v.eta_e)
            configs[sig["label"]] = mc.TrajectoryConfig(
                nbar=nbar, herald_efficiency=v.eta, herald_detectors=sig["detectors"],
                receiver_efficiency=v.eta_s, receiver_detectors=v.receiver_detectors,
                reflectivity=v.kappa, background_mean=v.nbar_b, shots=v.shots,
                trials=v.trials, seed=v.seed, signal_kind=kind,
                target_present=v.target_present,
            )
    ensembles = mc.average_trajectories(list(configs.values()), threads=v.threads)
    curves = dict(zip(configs, ensembles))
    header = ["shot_index"] + [f"mean_posterior_{label}" for label in curves]
    _write_csv(v.out, header, [np.arange(1, v.shots + 1), *curves.values()])

    sidecar = {
        "seed": v.seed, "trials": v.trials, "shots": v.shots, "threads": v.threads,
        "generator": mc.GENERATOR, "stream_derivation": mc.STREAM_DERIVATION,
        "signals": {
            label: {
                "probe_nbar": configs[label].nbar,
                "mean_curve_crossings": {str(t): mc.first_crossing(curve, t) for t in v.thresholds},
            }
            for label, curve in curves.items()
        },
    }
    meta = None if v.out is None else str(v.out) + ".meta.json"
    with _output(meta, sys.stderr) as handle:
        handle.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(v) -> int:
    """Oracle equivalence sweep; exit 0 only if every comparison passes."""
    try:
        report = verify.run_verification(v.quick, v.selftest_perturb)
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
    config: bool = True  # takes --config


COMMANDS = {
    "herald-stats": Command(cmd_herald_stats, (
        Param("nbar_grid", "--grid", GRID, [], GRID_HELP),
        Param("eta", "--eta", EFFICIENCY, 0.95, "herald detector efficiency"),
        Param("outcomes", None, Kind(_outcomes), [[1, 0], [1, 1], [2, 1], [2, 2], [4, 4]]),
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
    )),
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
    ), config=False),
    "trajectories": Command(cmd_trajectories, (
        Param("nbar", None, MEAN),
        Param("eta", None, EFFICIENCY, 0.9),
        Param("eta_s", None, EFFICIENCY, 0.9),
        Param("receiver_detectors", None, DETECTORS, 1),
        Param("kappa", None, REFLECTIVITY, 0.1),
        Param("nbar_b", None, BACKGROUND, 3.0),
        Param("shots", None, COUNT),
        Param("trials", None, COUNT),
        Param("seed", None, SEED, 0),
        Param("target_present", None, BOOLEAN, True),
        Param("eta_e", None, EAVESDROPPER, 0.9),
        Param("thresholds", None, THRESHOLDS, [0.8, 0.9]),
        Param("signals", None, Kind(partial(_signals, kinds=SIGNAL_KINDS))),
        Param("threads", "--threads", COUNT, 1, "worker threads", config=False),
        OUT,
    )),
    "verify": Command(cmd_verify, (
        Param("quick", "--quick", SWITCH, False, "reduced grid"),
        Param("selftest_perturb", "--selftest-perturb", NUMBER, 0.0,
              "inject this offset into one closed form (sensitivity self-test)"),
    ), config=False),
}


@cache  # parsing leaves the parser as it was, so a process builds it once
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
    except (QillumError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
