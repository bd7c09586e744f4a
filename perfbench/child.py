"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``PERFBENCH_SPAWN_NS`` set
to the parent's ``time.monotonic_ns()`` just before the spawn and the
checkout's ``src`` on ``PYTHONPATH``.

The spec lists the CLI invocations of the pass.  They run in this process
through ``qillum.cli.main``; standard output of each invocation is captured to
the file the spec names.  The timed region covers the invocations only.
Set-up time runs from the spawn until ``qillum.cli`` is imported and its parser
built.  Control invocations named by the spec run after the timed region.
The result is written as JSON to the spec's ``result`` path.
"""

import contextlib
import json
import os
import resource
import sys
import time

SPAWN_NS = int(os.environ["PERFBENCH_SPAWN_NS"])

from qillum import cli  # noqa: E402  (set-up time includes this import)

cli._build_parser()
SETUP_S = (time.monotonic_ns() - SPAWN_NS) / 1e9


def run_invocation(argv, stdout_path):
    """Exit code of one ``qillum`` invocation, as the command line would give it."""
    with contextlib.ExitStack() as stack:
        if stdout_path is not None:
            stack.enter_context(contextlib.redirect_stdout(stack.enter_context(open(stdout_path, "w"))))
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    codes = []
    start = time.perf_counter()
    for invocation in spec["invocations"]:
        codes.append(run_invocation(invocation["argv"], invocation.get("stdout")))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.metrics() if tracer is not None else None

    control_codes = [run_invocation(c["argv"], c.get("stdout")) for c in spec["controls"]]

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "control_codes": control_codes,
        "qillum_file": cli.__file__,
    }
    if layers is not None:
        result["layers"] = layers
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
