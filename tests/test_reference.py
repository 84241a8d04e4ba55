"""The benchmark's reference outputs, checked on every test run.

Each workload in ``perfbench/workloads.py`` has a ``reference`` call:
the workload's code path on small fixed inputs, whose outputs (fold
AUCs, CLI exit codes, meta statistics and streamed scores) are stored in
``perfbench/reference.json``. The benchmark compares them only while it
runs; this runs the same comparison, with the benchmark's own
tolerances, so a change that moves them fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, reference_problems  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_outputs_match(name, tmp_path):
    got = WORKLOADS[name].reference(str(tmp_path))
    assert reference_problems(got, EXPECTED[name]) == []
