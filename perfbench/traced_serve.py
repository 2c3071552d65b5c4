"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS_PATH serve [serve options]``.
Installs :class:`tracer.Tracer`, runs the ``repro`` command line with the
remaining arguments, and writes the server's span aggregates to SPANS_PATH
when the command returns (``--max-sessions`` makes it return).  Only the
traced run uses it; the untraced run starts the plain ``python -m repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = Path(argv[0]), argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        status = repro_main(command)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, extra={"process": "server"})
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
