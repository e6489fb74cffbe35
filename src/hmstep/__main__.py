"""``python -m hmstep ARGS`` runs the command line, same as ``hmstep ARGS``."""

import sys

from .cli import main

sys.exit(main())
