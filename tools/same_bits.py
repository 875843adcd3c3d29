"""Recompute the same-bits record, or rewrite the committed one.

    python tools/same_bits.py           # print the record as one JSON line
    python tools/same_bits.py --write   # rewrite tests/golden/same_bits.json

The record holds what ROADMAP's same-bits gate compares, at seed 1:

  * ``count_passes``: for each perfbench workload, the output of
    ``tools/count_passes.py WORKLOAD 1 1`` (fingerprint, and ``passes``,
    ``restarts`` and ``operator_applies`` per method);
  * ``csv``: for each gate sweep, the ``stiefel-agd scaling`` arguments,
    the SHA-256 of the CSV it writes and the CSV's lines, so that a
    mismatch can name the rows that differ;
  * ``build``: the numpy and scipy versions and the BLAS and LAPACK builds
    they link, and the CPU the record was made on.

BLAS is pinned to one thread, and the package is imported from ``src/`` of
the checkout the script sits in. ``tests/test_same_bits.py`` runs this
script and compares its output with the committed record. A change that
alters the bits on purpose regenerates the record with ``--write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "same_bits.json"
WORKLOADS = ("sphere-sweep", "brockett-agd", "brockett-gd")
SWEEPS = {
    "sphere": ["--n-values", "100,178,316", "--trials", "3"],
    "brockett": ["--problem", "brockett", "--k", "5", "--n-values", "60,100",
                 "--trials", "2"],
}
#: The ``build`` fields that decide whether a record applies; see
#: ``tests/test_same_bits.py``.
VERSIONS = ("numpy", "scipy", "numpy_blas", "scipy_lapack")


def build() -> dict:
    """The numpy and scipy versions, their BLAS and LAPACK builds, and the
    CPU model."""
    import numpy as np
    import scipy

    def lib(config: dict, name: str) -> str:
        dep = config.get("Build Dependencies", {}).get(name, {})
        return f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": lib(np.show_config(mode="dicts"), "blas"),
        "scipy_lapack": lib(scipy.show_config(mode="dicts"), "lapack"),
        "cpu": cpu,
    }


def sweep(args: list[str]) -> dict:
    """The CSV that ``stiefel-agd scaling ARGS --out FILE`` writes: its
    SHA-256 and its lines."""
    from stiefel_agd import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.csv"
        cli.main(["scaling", *args, "--out", str(out)])
        data = out.read_bytes()
    return {
        "args": args,
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": data.decode().splitlines(),
    }


def record() -> dict:
    """The same-bits record of the code under ``src/``."""
    import count_passes
    import workloads

    return {
        "count_passes": {w: count_passes.count(workloads.make, w, 1, 1)
                         for w in WORKLOADS},
        "csv": {name: sweep(args) for name, args in SWEEPS.items()},
        "build": build(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true",
                   help=f"rewrite {GOLDEN.relative_to(ROOT)} instead of printing")
    args = p.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or tools/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    rec = record()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(rec, indent=1) + "\n")
    else:
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
