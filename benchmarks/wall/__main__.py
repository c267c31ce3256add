"""``PYTHONPATH=src python -m benchmarks.wall`` — see ``run.py``."""

import sys

from benchmarks.wall.run import main

sys.exit(main())
