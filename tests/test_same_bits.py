"""The same-bits gate as a test: the seed-1 pass counts and fingerprints of
every perfbench workload, and the two gate CSVs, match the committed record
``tests/golden/same_bits.json``.

A change that keeps the arithmetic keeps every count, fingerprint and CSV
byte. A change that alters the bits on purpose regenerates the record with
``python tools/same_bits.py --write`` and says so.

The bits depend on the numpy and scipy builds and on the BLAS and LAPACK
they link, so the test is skipped, with the differing fields named, when
any of ``tools/same_bits.py``'s ``VERSIONS`` differs from the record's:
there the record says nothing, and regenerating it on that build makes the
test a gate again. OpenBLAS also picks its kernels by CPU; the record names
the CPU it was made on, and a failure on another CPU with the same builds
reports both.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bits.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "same_bits.json"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differences(golden: dict, fresh: dict) -> list[str]:
    """One line per count, fingerprint or CSV row that differs."""
    lines = []
    for workload, want in golden["count_passes"].items():
        got = fresh["count_passes"][workload]
        for counter in ("passes", "restarts", "operator_applies"):
            for method, n in want[counter].items():
                m = got[counter].get(method, 0)
                if m != n:
                    lines.append(f"{workload} {counter} {method}: {n} -> {m} ({m - n:+d})")
        for seed, fp in want["fingerprints"].items():
            if got["fingerprints"].get(seed) != fp:
                lines.append(f"{workload} seed {seed} fingerprint: {fp[:8]} -> "
                             f"{got['fingerprints'].get(seed, '')[:8]}")
        if (got["solves"], got["failed"]) != (want["solves"], want["failed"]):
            lines.append(f"{workload} solves/failed: {want['solves']}/{want['failed']}"
                         f" -> {got['solves']}/{got['failed']}")
    for name, want in golden["csv"].items():
        got = fresh["csv"][name]
        if got["sha256"] == want["sha256"]:
            continue
        lines.append(f"{name} CSV ({' '.join(want['args'])}): sha256 "
                     f"{want['sha256'][:8]} -> {got['sha256'][:8]}")
        old, new = want["rows"], got["rows"]
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else "(none)"
            b = new[i] if i < len(new) else "(none)"
            if a != b:
                lines.append(f"  row {i}: {a}\n      -> {b}")
    return lines


def test_differences_name_counts_fingerprints_and_rows():
    golden = {
        "count_passes": {"w": {"passes": {"gd": 10, "total": 10},
                               "restarts": {"gd": 0, "total": 0},
                               "operator_applies": {"gd": 30, "total": 30},
                               "fingerprints": {"1": "aaaaaaaaaa"},
                               "solves": 2, "failed": 0}},
        "csv": {"s": {"args": ["--trials", "3"], "sha256": "0" * 64,
                      "rows": ["head", "r1", "r2"]}},
    }
    fresh = json.loads(json.dumps(golden))
    assert differences(golden, fresh) == []
    fresh["count_passes"]["w"]["passes"] = {"gd": 12, "total": 12}
    fresh["count_passes"]["w"]["fingerprints"]["1"] = "bbbbbbbbbb"
    fresh["csv"]["s"].update(sha256="1" * 64, rows=["head", "r1", "r2x", "r3"])
    assert differences(golden, fresh) == [
        "w passes gd: 10 -> 12 (+2)",
        "w passes total: 10 -> 12 (+2)",
        "w seed 1 fingerprint: aaaaaaaa -> bbbbbbbb",
        "s CSV (--trials 3): sha256 00000000 -> 11111111",
        "  row 2: r2\n      -> r2x",
        "  row 3: (none)\n      -> r3",
    ]


@pytest.mark.slow
def test_seed_1_counts_and_gate_csvs_match_the_record(tool):
    golden = json.loads(GOLDEN.read_text())
    here = tool.build()
    changed = [f"{key}: {golden['build'][key]} (record) vs {here[key]} (here)"
               for key in tool.VERSIONS if golden["build"][key] != here[key]]
    if changed:
        pytest.skip("the record was made on another build; regenerate it with "
                    "`python tools/same_bits.py --write` to test this one: "
                    + "; ".join(changed))
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=900,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    lines = differences(golden, json.loads(proc.stdout))
    assert not lines, (
        "the bits changed (record made on {}, run on {}):\n{}".format(
            golden["build"]["cpu"], here["cpu"], "\n".join(lines))
    )
