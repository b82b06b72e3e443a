"""``python -m qmcverify``: the command-line interface of :mod:`qmcverify.cli`,
also from a checkout that is only on ``PYTHONPATH``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
