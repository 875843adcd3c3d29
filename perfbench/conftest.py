"""Set-up for the benchmark's own tests (python -m pytest perfbench): import
the package from the checkout's src/, and pin BLAS to one thread as the
benchmark does, since its default threads crawl when the other core is busy."""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
