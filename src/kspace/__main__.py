"""`python -m kspace`: the command line of `kspace.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
