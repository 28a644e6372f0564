#!/usr/bin/env python
"""Regenerate the entire paper — every table and figure — in one run.

Equivalent to ``repro report``.  Expect roughly 20-40 minutes at paper
scale, or pass ``--quick`` for a smoke pass in about two minutes.

Run:  python examples/full_report.py --quick
      python examples/full_report.py > report.txt
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["report", *sys.argv[1:]]))
