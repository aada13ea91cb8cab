"""``python -m finslergbc``: the command line of ``finslergbc.cli``, which
is then imported once, as itself."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
