"""Run the arrayshadow CLI with its public functions traced.

Usage: python cli_child.py SPANS_JSON CLI_ARG...

Imports arrayshadow.cli, rebinds the traced functions, calls
``cli.main(CLI_ARG...)``, writes the spans to SPANS_JSON and exits with
the CLI's exit code.
"""

import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import arrayshadow.cli

    tracer = Tracer()
    tracer.install()
    code = arrayshadow.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
