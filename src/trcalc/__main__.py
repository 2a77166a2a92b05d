"""`python -m trcalc`: the command-line driver without an installed script."""

import sys

from .cli import main

sys.exit(main())
