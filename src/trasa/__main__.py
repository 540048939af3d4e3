"""`python -m trasa`: the sweep command line, the same as the `trasa` script."""

import sys

from .experiment_cli import main

if __name__ == "__main__":
    sys.exit(main())
