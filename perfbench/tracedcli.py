"""Run the aoikit CLI with the span tracer installed and write the spans out
when it exits.

Usage: python tracedcli.py SPANS_JSON CLI_ARG...
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import aoikit.cli

    tracer = Tracer().install()
    try:
        return aoikit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fp:
            json.dump(tracer.dump(), fp)


if __name__ == "__main__":
    sys.exit(main())
