"""Run the command-line interface from a checkout: ``python -m trawlprice``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
