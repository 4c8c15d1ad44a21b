"""``python -m qzeros``: the same command line as the ``qzeros`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
