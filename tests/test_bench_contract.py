"""The calls the benchmark makes into the package still work.

`bench/workloads.py` drives the package through its public functions and
checks every pass.  This runs pass 0 of seed 1 of each workload once, the
way `bench/run.py` does, so a change that breaks one of those calls (a
removed parameter, a renamed function) fails here.  Pass 0 does not reach
every line, so every package name the benchmark files import or read is
also resolved statically.  The benchmark files are imported or parsed,
never modified.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from ucamimo import sim  # noqa: E402

SEED = 1
BENCH = Path(__file__).resolve().parent.parent / "bench"
# bench/selftest.py is left out: its `sim.build_channel` reads are the known
# red self-test that the next change to the benchmark mends (ROADMAP item 1).
LIBRARY_CALLERS = ("run", "workloads", "checks", "tracing", "calibrate")


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


def dotted_name(node):
    """`a.b.c` of a chain of attribute reads on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def package_references(source):
    """(line, dotted name) of each `ucamimo` name a module imports, or reads off an imported one."""
    tree = ast.parse(source)
    bound = {}  # local name -> the package name it is bound to
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ucamimo":
                    refs.append((node.lineno, alias.name))
                    local = alias.asname or "ucamimo"
                    bound[local] = alias.name if alias.asname else "ucamimo"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "ucamimo":
            for alias in node.names:
                refs.append((node.lineno, f"{node.module}.{alias.name}"))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        name = dotted_name(node) if isinstance(node, ast.Attribute) else None
        if name is not None and name.split(".")[0] in bound:
            head, _, rest = name.partition(".")
            refs.append((node.lineno, f"{bound[head]}.{rest}"))
    return refs


def resolves(name):
    """Whether a dotted package name names a module or an attribute of one."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for at, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:at]))
        except ModuleNotFoundError:
            return False
    return True


def test_package_names_the_benchmark_uses_exist():
    refs = [
        (f"bench/{name}.py:{line}", ref)
        for name in LIBRARY_CALLERS
        for line, ref in package_references((BENCH / f"{name}.py").read_text(encoding="utf-8"))
    ]
    assert any(ref.startswith("ucamimo.transceiver.") for _, ref in refs)
    missing = [f"{where}: {ref}" for where, ref in refs if not resolves(ref)]
    assert not missing, "benchmark reads package names that do not exist:\n" + "\n".join(missing)


def test_traced_campaign_scores_each_antenna_count_in_one_public_call():
    # the tracer wraps public functions only, so a pass's codebook scoring is timed as
    # `transceiver.codebook_self_s` only while the campaigns call `codebook_best_rates` itself
    cfg = sim.TrialConfig(seed=SEED, n_trials=2, n_antennas_list=(4, 8, 12), distances=(100.0, 300.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        sim.run_rate_sweep(cfg)
    spans = tracer.take()
    scorer = [span for span in spans if span[tracing.NAME] == "transceiver.codebook_best_rates"]
    assert len(scorer) == len(cfg.n_antennas_list)
    assert all(span[tracing.ERROR] is None for span in scorer)
    assert tracing.layer_metrics(spans)["transceiver.codebook_self_s"] > 0.0
