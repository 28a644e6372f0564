"""``python -m repro ...``: the same as the ``repro`` command."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
