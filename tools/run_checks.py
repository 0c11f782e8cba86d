#!/usr/bin/env python
"""CI entry point for the static-analysis suite (``repro check``).

Equivalent to ``PYTHONPATH=src python -m repro.cli check`` but
self-contained: fixes up ``sys.path`` so a bare checkout works.

    python tools/run_checks.py

Exit codes: 0 clean, 1 findings, 2 usage error.  A run writes nothing
into the checkout.  See ``docs/STATIC_ANALYSIS.md``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.engine import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
