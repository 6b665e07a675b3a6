"""``python -m benchmarks.e2e`` is ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
