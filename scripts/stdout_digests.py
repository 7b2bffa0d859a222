#!/usr/bin/env python3
"""Print the stdout digest and exit code of a list of command lines.

Usage: python scripts/stdout_digests.py COMMANDS_FILE

Each non-blank line of COMMANDS_FILE that does not start with ``#`` is one
``plueckerfan`` command line without the program name, split like a shell
line (``straighten --kind N --n 5 --pair "1,2,5 1,5,3,4"``).  Every command
runs through ``cli.main`` in this one process, and one line is printed per
command: the SHA-256 of its stdout, its exit code and the command line.  Run
it from the root of two checkouts and diff the outputs to compare their
stdout bytes command by command.
"""

import contextlib
import hashlib
import io
import shlex
import sys

sys.path.insert(0, "src")

from plueckerfan import cli


def digest(argv):
    """(sha256 of stdout, exit code) of one ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if line and not line.startswith("#"):
            sha, code = digest(shlex.split(line))
            print(f"{sha} {code} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
