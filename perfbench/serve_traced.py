"""Run ``repro jobs serve`` with the benchmark's layer spans installed.

Usage: ``python serve_traced.py SPANS.json jobs serve --root DIR ...``

The wrappers from :mod:`layers` go in before the CLI opens the store,
so journal replay is traced too.  When the server drains (SIGTERM) the
spans are written to ``SPANS.json``.
"""

import sys

from layers import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
