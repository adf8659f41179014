"""Run one apollonius CLI command with every layer wrapped in spans.

    python bench/cli_child.py SPANS.npz ARG...

Behaves like `python -m apollonius.cli ARG...` (same exit code and
output) and writes the span table to SPANS.npz when the command ends.
"""

import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from apollonius import cli

    try:
        return cli.run(argv)
    finally:
        tracer.restore()
        tracer.spans().save(out)


if __name__ == "__main__":
    sys.exit(main())
