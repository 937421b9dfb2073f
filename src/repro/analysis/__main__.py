"""``python -m repro.analysis`` — run the invariant linter standalone.

Identical behavior to the ``repro lint`` subcommand: both parse with
:func:`repro.analysis.runner.build_parser` and execute through
:func:`repro.analysis.runner.run_arguments`, so the flags and the
exit-code contract (0 clean, 1 findings, 2 internal error) are the same
for either entry point.
"""

from __future__ import annotations

import sys

from repro.analysis.runner import main

if __name__ == "__main__":
    sys.exit(main())
