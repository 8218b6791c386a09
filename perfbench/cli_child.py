"""Traced stand-in for `python -m skewcodes.cli`, used by the traced cli-cold run.

    python3 perfbench/cli_child.py STATS.json SPANS.npz CLI-ARGS...

Times the import of the CLI module, then installs the layer tracer (plus a
span around cli.load_workspace) and runs the command exactly as the module
entry point would.  Its own timings and the layer counts go to STATS.json,
the spans to SPANS.npz; standard output and the exit code are the command's.
"""

import json
import sys
import time

t0 = time.perf_counter()
import skewcodes.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(extra_spans=[("cli.load_workspace", "skewcodes.cli", "load_workspace")])
    tracer.install()
    t1 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        total = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
    stats = tracer.layer_stats()
    del stats["cli.load_workspace.calls"], stats["cli.load_workspace.self_s"]
    # load_workspace has traced children, so its share is its total time
    load_s = tracer.total_s[tracer.names.index("cli.load_workspace")]
    stats.update(import_s=import_s, load_workspace_s=load_s, command_s=total - load_s,
                 spans=tracer.span_count())
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    tracer.write(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
