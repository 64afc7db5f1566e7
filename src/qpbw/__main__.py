"""Run the command-line interface as ``python -m qpbw``; from a source
checkout without installing, ``PYTHONPATH=src python -m qpbw verify``."""

import sys

from .cli import main

sys.exit(main())
