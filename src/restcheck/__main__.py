"""`python -m restcheck`: the same command line as the `restcheck` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
