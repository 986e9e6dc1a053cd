#!/usr/bin/env python3
"""Run every verification suite at the acceptance arguments and fold the verdicts.

Usage: run_all.py --out DIR [ballwalk flags].  Each suite runs at its
SUITE_ARGS followed by those of the further flags given here that it reads
(``ballwalk.cli.suite_fields``); argparse keeps the last value, so
``--workers 2`` or ``--paths 200 --dt 0.01`` apply to every suite that takes
them, and a flag no suite takes exits 2.  ``report`` runs last and its code,
the number of failed suites, is the exit code; a suite that exits outside
{0, 1} stops the run with its own code.  The acceptance gate
(tests/test_acceptance.py) runs this script.
"""

import argparse
import sys

from ballwalk.cli import FLAGS, main as cli, suite_fields

# the acceptance arguments of each suite, in run order; the rest are RunConfig defaults
SUITE_ARGS = {
    "constants": [],
    "reflection": ["--paths", "10000", "--dt", "1e-05"],
    "tightness": ["--paths", "10000", "--dt", "0.001", "--m", "2"],
    "exit-dist": ["--paths", "20000", "--dt", "0.0001"],
    "scaling": ["--paths", "10000", "--dt", "0.0001", "--m", "2"],
    "continuity": ["--paths", "10000", "--dt", "0.0001", "--m", "2"],
    "martingale": ["--paths", "20000"],
    "hardy-limit": ["--paths", "10000", "--dt", "0.0001", "--q-max", "3"],
}


def run(out: str, given: dict) -> int:
    """``given`` maps a RunConfig field to the argument of its flag, None where it was not given."""
    for suite, args in SUITE_ARGS.items():
        flags = [a for key in suite_fields(suite) if given[key] is not None for a in (FLAGS[key], given[key])]
        code = cli([suite, "--out", out, *args, *flags])
        if code not in (0, 1):
            return code
    return cli(["report", "--out", out])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    for key, flag in FLAGS.items():
        ap.add_argument(flag, dest=key, help="passed to the suites that read it")
    given = vars(ap.parse_args())
    sys.exit(run(given.pop("out"), given))
