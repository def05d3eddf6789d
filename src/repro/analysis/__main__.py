"""``python -m repro.analysis`` — the load-time analysis CLI."""

import sys

from .lint import main

if __name__ == "__main__":
    sys.exit(main())
