"""Benchmark-owned launcher for the serving daemon.

Installs the traced run's wrappers (and, for the sensitivity check, a
fixed delay on ``CSRGraph.cut_weights_stable``) in the daemon process,
then calls ``repro.serving.server.main`` with the arguments after
``--``.  When the daemon shuts down it restores the originals and
writes the tracer's aggregates to ``--summary`` as JSON and the kept
spans to ``--spans``::

    python perfbench/daemon.py --summary out.json --spans out.npz --trace -- --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import prepare_environment  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced spans go (.npz)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--delay-s", type=float, default=0.0)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args and server_args[0] == "--":
        server_args = server_args[1:]

    prepare_environment()
    from repro.serving import server

    from perfbench.tracer import (
        DAEMON_HOOKS,
        DELAY_SITE,
        Patcher,
        Tracer,
        delay_wrapper,
        resolve,
    )

    tracer = Tracer()
    with Patcher() as patcher:
        if args.delay_s > 0:
            owner, attr = resolve(DELAY_SITE)
            patcher.patch(owner, attr, delay_wrapper(args.delay_s))
        if args.trace:
            patcher.install(tracer, DAEMON_HOOKS)
        rc = server.main(server_args)
    summary = tracer.summary()
    if args.trace and args.spans is not None:
        tracer.write(args.spans)
    args.summary.write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main())
