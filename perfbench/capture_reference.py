"""Write the scan and star reference tables that the scan_star checks use.

    python3 perfbench/capture_reference.py

Run it only on a commit whose tables are trusted; the committed tables were
written by the qcartan version the benchmark was defined on.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_qcartan()
import workloads  # noqa: E402

workloads.REFERENCE_DIR.mkdir(exist_ok=True)
for N, q, M in workloads.SCAN_CHAINS:
    for command in ("scan", "star"):
        workloads.run_cli([command, "--N", str(N), "--q", q, "--max-level",
                           str(M), "--out", str(workloads.REFERENCE_DIR)])
print(f"wrote {len(list(workloads.REFERENCE_DIR.glob('*.csv')))} tables "
      f"to {workloads.REFERENCE_DIR}")
