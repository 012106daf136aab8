"""Run the wolstenholme CLI once with the layer probes installed.

Usage: python3 perfbench/traced_cli.py TRACE_OUT.json <cli arguments...>

Exits with the CLI's own exit code and writes the tracer's snapshot, plus
the registry's check ids, to TRACE_OUT.json.
"""
import json
import sys

from tracer import Tracer


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    from wolstenholme import checks, cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(cli_args)
    snapshot = tracer.snapshot()
    registry_ids = getattr(checks, "all_check_ids", list)
    snapshot["check_ids"] = registry_ids()
    with open(trace_out, "w", encoding="utf-8") as sink:
        json.dump(snapshot, sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
