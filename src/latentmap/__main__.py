"""``python -m latentmap``: the same command line as the ``latentmap`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
