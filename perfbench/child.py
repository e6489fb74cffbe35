"""One ``hmstep`` command line in a fresh process, as a user runs it.

    python3 perfbench/child.py [--spans PATH] -- all --samples 200 --seed 7 --format json

Imports hmstep from the checkout's ``src/`` and runs ``hmstep.cli.main`` on
the arguments after ``--``; the exit code and the report on stdout are the
command's own. With ``--spans`` the calls are traced and the spans written
to PATH when the command ends.
"""

from __future__ import annotations

import sys

from checkout import import_hmstep


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    spans = own[own.index("--spans") + 1] if "--spans" in own else None
    import_hmstep()
    from hmstep import cli

    if spans is None:
        return cli.main(cli_args)
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = cli.main(cli_args)
    with open(spans, "wb") as handle:
        tracer.log.dump(handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
