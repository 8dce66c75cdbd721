"""`python -m padicsep ...` runs the command-line front end."""

import sys

from .cli import main

if __name__ == "__main__":  # a spawned pool worker imports this module under another name
    sys.exit(main())
