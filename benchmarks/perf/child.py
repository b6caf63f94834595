"""Entry point of the child interpreter that ``run.py`` starts per run.

Worker processes re-import this file under the spawn start method, so it
only fixes the import path; the harness is imported when it is the main
program.
"""

import sys
from pathlib import Path

_PERF_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(_PERF_DIR.parents[1] / "src"), str(_PERF_DIR)]

if __name__ == "__main__":
    from measure import main

    sys.exit(main())
