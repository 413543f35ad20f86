"""`python -m postedprice ...`: the command-line front end, as `postedprice ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
