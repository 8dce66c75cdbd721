"""`python -m padicsep ...` runs the command-line front end."""

import sys

from .cli import main

if __name__ == "__main__":  # importing this module runs nothing
    sys.exit(main())
