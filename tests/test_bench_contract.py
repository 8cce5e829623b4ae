"""The calls the benchmark makes into the package still work.

`bench/workloads.py` drives the package through its public functions and
checks every pass.  This runs pass 0 of seed 1 of each workload once, the
way `bench/run.py` does, so a change that breaks one of those calls (a
removed parameter, a renamed function) fails here.  The benchmark files
are imported, never modified.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", ["design_grid", "rate_sweep", "bit_sweep", "rate_sweep_exact"])
def test_pass_zero_runs_and_checks_clean(name, tmp_path):
    wl = workloads.make_workloads(jobs=2)[name]
    inputs = wl.inputs(SEED, 0)
    assert wl.items(inputs) > 0
    csv_path = tmp_path / f"{name}.csv"
    output, _ = wl.run(inputs, csv_path)
    csv = wl.csv_bytes(inputs, output, csv_path)
    assert csv.endswith(b"\n")
    report = wl.check(inputs, output, csv, workloads.pass_seed(SEED, 0))
    assert not report.failed, report.messages
