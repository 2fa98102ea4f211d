"""One interpnn invocation, run as its own process by run.py.

usage: child.py COMMAND CONFIG MARKER [SPANS]

Imports interpnn.cli and resolves the config file, which ends set-up, then
runs the subcommand through ``interpnn.cli.main``. MARKER receives the
CLOCK_MONOTONIC time at which set-up ended and the exit code. With SPANS,
the cross-module calls are wrapped in timing spans first, and the spans are
written to that file when the subcommand has returned.
"""
import json
import sys
import time


def run(argv) -> int:
    command, config, marker = argv[:3]
    import interpnn.cli as cli

    cli.resolve_config(command, cli.read_config_file(config), {})
    ready = time.monotonic()
    tracer = None
    if len(argv) > 3:
        import spans

        tracer = spans.install(cli)
    rc = cli.main([command, "--config", config])
    with open(marker, "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "rc": rc}, fh)
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "ties": tracer.ties}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
