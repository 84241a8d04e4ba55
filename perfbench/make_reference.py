"""Write ``reference.json``: each workload's reference outputs.

Run from the root of a checkout, at the commit whose outputs later runs
are compared with:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    out = {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE.parent) as work_dir:
            out[name] = workload.reference(work_dir)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
