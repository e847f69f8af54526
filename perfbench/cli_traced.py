"""Traced stand-in for ``python -m jumpscan.cli``.

Usage: ``python cli_traced.py REPORT.json <jumpscan cli arguments...>``

Times the fresh package import, installs the span recorder, calls
``jumpscan.cli.main`` with the remaining arguments and, when it returns,
writes ``{"import_s", "spans", "rc"}`` to REPORT.json.  Exits with the CLI's
exit code.  The span recorder is imported only after the timed import, so
every module the package needs is loaded inside the timed interval.
"""

import sys
import time


def main():
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import jumpscan.cli

    import_s = time.perf_counter() - t0
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = jumpscan.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(report, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
