"""Run one ``tangent-topo`` command with the benchmark's span recorder.

Usage (from the repository root):

    python3 bench/cli_child.py SPANS_OUT -- synthesize --inv F --out G

Installs ``spans.Tracer`` in this process, runs ``tangent_topo.cli.main``
on the arguments after ``--``, writes the recorded spans and counters to
``SPANS_OUT`` and exits with the command's exit code.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tangent_topo.cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit(__doc__)
    out, args = Path(sys.argv[1]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return tangent_topo.cli.main(args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.to_dict()))


if __name__ == "__main__":
    sys.exit(main())
