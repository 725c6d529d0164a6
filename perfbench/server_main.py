"""Run ``repro serve`` in this process, optionally traced.

    python3 -u perfbench/server_main.py --state DIR [--trace-out FILE]

Without ``--trace-out`` this is exactly ``repro serve --port 0 --state
DIR`` (file backend, one worker, telemetry on).  With it, every layer
is wrapped before the server is built and the spans are written to
``FILE`` when the server stops on SIGINT; SIGUSR1 discards what was
recorded so far (the client sends it when set-up ends) and then
creates ``FILE.reset``.  ``--delay LAYER=SECONDS``
exists for the negative-control script only.
"""

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--state", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--delay", action="append", default=[])
    args = parser.parse_args()
    delays = {}
    for spec in args.delay:
        layer, _, value = spec.partition("=")
        delays[layer] = float(value)
    tracer = None
    if args.trace_out:
        tracer = Tracer(delays=delays).install()
        marker = Path(args.trace_out + ".reset")

        def reset(_signum, _frame):
            tracer.reset()
            marker.touch()
        signal.signal(signal.SIGUSR1, reset)
    elif delays:
        Tracer(delays=delays, record=False).install()
    code = repro.cli.main([
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--state", args.state, "--backend", "file", "--workers", "1",
    ])
    if tracer is not None:
        tracer.write(Path(args.trace_out))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
