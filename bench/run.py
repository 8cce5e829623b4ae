"""Benchmark of the ucamimo toolkit.

Usage (from the repository root):

    python3 bench/run.py --workload rate_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One run imports the package from ``src/``, builds the workload's inputs
from the seed, runs one warm-up pass and then timed passes until
``--seconds`` have elapsed, checking every pass's output.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced passes with traced passes on the same
inputs and reports the per-layer metrics.  The last line of standard
output is a JSON object {"correct", "attempted", "failed", "metrics"}; the
full record (environment, sample counts, CSV digests) is written to
``.bench_out/``.  ``--workload all`` runs every workload, untraced then
traced, each in its own process, and prints one table.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 20  # spread evenly over the timed loop, so no one slow stretch sets the median
MIN_PASSES = 3
LOOP_LIMIT_S = 120.0  # keeps a run far inside its time budget even if passes slow down
CHILD_TIMEOUT_S = 180.0


def thread_plan() -> tuple[int, int, int]:
    """(nproc, jobs, BLAS threads) with jobs x BLAS threads <= nproc.

    jobs is the CLI's default (one per processor), so BLAS runs one thread.
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = nproc
    return nproc, jobs, max(1, nproc // jobs)


def pin_blas_threads(threads: int) -> None:
    """Must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_program():
    """Import ucamimo from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ucamimo
        import ucamimo.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ucamimo from {src}: {exc}")
    if Path(ucamimo.__file__).resolve().parent != (src / "ucamimo").resolve():
        raise SystemExit(f"bench: ucamimo was imported from {ucamimo.__file__}, not {src}")
    ucamimo.cli.build_parser()  # the CLI's own cost belongs to set-up


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- environment


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = size
    return out


def blas_info() -> dict:
    """BLAS library name, version and the thread count it actually runs."""
    import ctypes

    import numpy as np

    info = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    # The wheel's bundled OpenBLAS, already loaded by NumPy.
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*blas*")):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(lib)
            for prefix in ("scipy_", ""):
                for suffix in ("64_", ""):
                    fn = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        info["threads"] = fn()
                        return info
    return info


def environment(args, nproc: int, jobs: int) -> dict:
    import numpy as np

    cpu = next(
        (line.split(":", 1)[1].strip() for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "caches": cache_sizes(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
    }


# ---------------------------------------------------------------- passes


def setup_probe(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its inputs being built.

    The interpreter then times the calibration kernel once, so the probe is
    rescaled by the host's speed in the same process right after it.
    Returns (raw, at reference speed).
    """
    from calibrate import REFERENCE_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    ready, kernel = map(float, proc.stdout.split()[-2:])
    raw = ready - spawned
    return raw, raw * REFERENCE_S / kernel


def do_pass(wl, inputs, key: int, csv_path: Path, tracer=None, expect_csv: bytes | None = None) -> dict:
    """Run and check one pass.

    The calibration kernel runs right before and after the timed region, on
    as many threads as the pass uses; ``factor`` rescales the pass's times to the reference speed.  A traced
    pass repeats an untraced pass's inputs, so its check is that its CSV
    bytes equal that pass's.
    """
    import checks
    from calibrate import kernel_seconds, speed_factor

    items = wl.items(inputs)
    error = None
    before = kernel_seconds(wl.threads)
    with tracer.installed() if tracer else contextlib.nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output, latencies = wl.run(inputs, csv_path)
        except Exception as exc:  # a raising program call fails the pass's items
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    factor = speed_factor(before, kernel_seconds(wl.threads), wl.threads)
    record = {"items": items, "wall_s": wall, "cpu_s": cpu, "factor": factor,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        record["spans"] = tracer.take()
    if error is not None:
        report = checks.Report()
        report.fail_all(range(items), error)
        csv = b""
    else:
        csv = wl.csv_bytes(inputs, output, csv_path)
        if expect_csv is None:
            report = wl.check(inputs, output, csv, key)
        else:
            report = checks.Report()
            if csv != expect_csv:
                report.fail_all(range(items), "traced pass CSV differs from the untraced pass")
        record["latencies"] = latencies if latencies is not None else [wall]
    record["ref_s"] = wall * factor
    record.update(csv=csv, failed=len(report.failed), messages=report.messages, stats=report.stats)
    return record


def quantile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_median(traced: list[dict], key: str) -> float:
    """Median over traced passes of one per-layer value; times at reference speed."""
    return statistics.median(
        p["layers"][key] * (p["factor"] if key.endswith("_s") else 1.0) for p in traced
    )


def run_workload(args) -> int:
    nproc, jobs, blas_threads = thread_plan()
    pin_blas_threads(blas_threads)
    import_program()
    from workloads import make_workloads

    wl = make_workloads(jobs)[args.workload]
    inputs0 = wl.inputs(args.seed, 0)
    if args.setup_probe:
        ready = time.perf_counter()
        from calibrate import kernel_seconds

        print(repr(ready), repr(kernel_seconds()))
        return 0
    setup_in_process = time.perf_counter() - T_START

    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    csv_path = OUT_DIR / f"{stem}.csv"
    env = environment(args, nproc, jobs)

    from workloads import pass_seed

    warm = do_pass(wl, inputs0, args.seed, csv_path)
    timed, traced = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    setup = []
    probes_wanted = 0 if args.trace else SETUP_PROBES
    probe_s = 0.0  # time spent in set-up probes, which does not count towards --seconds
    loop_start = time.perf_counter()
    index = 0
    while True:
        inputs = inputs0 if index == 0 else wl.inputs(args.seed, index)
        rec = do_pass(wl, inputs, pass_seed(args.seed, index), csv_path)
        if index == 0:
            if rec["csv"] != warm["csv"]:
                rec["failed"] = rec["items"]
                rec["messages"].append("pass 0 CSV differs from the warm-up pass on the same inputs")
            csv0_sha256 = hashlib.sha256(rec["csv"]).hexdigest()
        timed.append(rec)
        if tracer:
            twin = do_pass(wl, inputs, 0, csv_path, tracer=tracer, expect_csv=rec["csv"])
            twin["layers"] = layer_metrics(twin.pop("spans"))
            traced.append(twin)
        for done in (warm, rec, *traced[-1:]):
            done["csv"] = None  # keep the run's own memory flat across passes
        index += 1
        elapsed = time.perf_counter() - loop_start - probe_s
        while len(setup) < probes_wanted * min(1.0, elapsed / args.seconds):
            t0 = time.perf_counter()
            setup.append(setup_probe(args))
            probe_s += time.perf_counter() - t0
        if (elapsed >= args.seconds and index >= MIN_PASSES) or elapsed >= LOOP_LIMIT_S:
            break
    while len(setup) < probes_wanted:
        setup.append(setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = [warm, *timed, *traced]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies_ms = [1e3 * x * p["factor"] for p in timed for x in p.get("latencies", [])]
    samples = {"passes": len(timed), "latencies": len(latencies_ms), "setup_probes": len(setup)}

    if args.trace:
        section = spec["per_layer"]
        values = {m["name"]: layer_median(traced, m["name"]) for m in section
                  if m["name"] in traced[0]["layers"]}
        values["sim.cpu_per_wall"] = statistics.median(p["cpu_s"] / p["wall_s"] for p in timed)
        for stat in ("inf_cond_rows", "capacity_row_gap_max"):
            values[f"sim.{stat}"] = statistics.median(p["stats"].get(stat, 0.0) for p in timed)
        values["trace.overhead_frac"] = statistics.median(
            t["ref_s"] / u["ref_s"] for t, u in zip(traced, timed)) - 1.0
        samples["traced_passes"] = len(traced)
    else:
        section = spec["end_to_end"]
        values = {
            "items_per_s": statistics.median(p["items"] / p["ref_s"] for p in timed),
            "setup_s": statistics.median(ref for _, ref in setup),
            "query_ms_p50": statistics.median(latencies_ms),
            "query_ms_p90": quantile_90(latencies_ms),
            "peak_rss_mb": peak_rss_mb,
        }
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics {missing} were not measured")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    failed_frac = failed / attempted

    messages = [m for p in passes for m in p["messages"]][:10]
    record = {
        "workload": args.workload,
        "item": wl.item,
        "items_per_pass": timed[0]["items"],
        "env": env,
        "samples": samples,
        "failed_frac": failed_frac,
        "attempted": attempted,
        "failed": failed,
        "csv_sha256_pass0": csv0_sha256,
        "setup_in_process_s": setup_in_process,
        "setup_probes_raw_s": [raw for raw, _ in setup],
        "setup_probes_ref_s": [ref for _, ref in setup],
        "pass_wall_raw_s": [p["wall_s"] for p in timed],
        "pass_speed_factor": [p["factor"] for p in timed],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in [warm, *timed]],
        "raw_items_per_s": statistics.median(p["items"] / p["wall_s"] for p in timed),
        "capacity_row_gap_max": max(p["stats"].get("capacity_row_gap_max", 0.0) for p in timed),
        "negative_rate_rows": sum(p["stats"].get("negative_rate_rows", 0) for p in passes),
        "trials_beating_capacity_row": sum(
            p["stats"].get("trials_beating_capacity_row", 0) for p in passes),
        "metrics": metrics,
        "messages": messages,
    }
    if args.trace:
        record["traced_pass_wall_raw_s"] = [p["wall_s"] for p in traced]
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {jobs}  "
          f"blas {env['blas'].get('name')} x{env['blas'].get('threads')}  nproc {nproc}")
    print(f"  {len(timed)} timed passes after 1 warm-up; {timed[0]['items']} items "
          f"({wl.item}) per pass; {len(latencies_ms)} latency samples")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed_frac:14.6g} ({failed} of {attempted} items)")
    print(f"  csv sha256 (pass 0) {record['csv_sha256_pass0']}")
    print(f"  capacity row: largest gap to the recomputed capacity "
          f"{record['capacity_row_gap_max']:.6g} bit/s/Hz; trials where a scheme beats it: "
          f"{record['trials_beating_capacity_row']}; rates below 0 by rounding: "
          f"{record['negative_rate_rows']}")
    for message in messages:
        print(f"  check failed: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    rows, status = {}, 0
    for trace in (0, 1):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)  # never report an earlier run's record
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
            if path.exists():
                rows.setdefault(name, {})[trace] = json.loads(path.read_text())
    print()
    print(f"{'metric':36s} {'unit':6s} " + " ".join(f"{n:>18s}" for n in names))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for m in spec[section]:
            cells = []
            for n in names:
                rec = rows.get(n, {}).get(trace)
                cells.append(f"{rec['metrics'][m['name']]['value']:18.6g}" if rec else f"{'-':>18s}")
            print(f"{m['name']:36s} {m['unit']:6s} " + " ".join(cells))
        if trace == 0:
            cells = [f"{rows[n][0]['failed_frac']:18.6g}" if 0 in rows.get(n, {}) else f"{'-':>18s}"
                     for n in names]
            print(f"{'failed_frac':36s} {'1':6s} " + " ".join(cells))
            print("samples (timed passes / latency samples / set-up probes / items attempted):")
            for n in names:
                rec = rows.get(n, {}).get(0)
                if rec:
                    s = rec["samples"]
                    print(f"  {n:18s} {s['passes']} / {s['latencies']} / {s['setup_probes']} / "
                          f"{rec['attempted']}  ({rec['item']})")
    summary = {n: {t: {k: v["value"] for k, v in r["metrics"].items()} for t, r in rec.items()}
               for n, rec in rows.items()}
    print(json.dumps(summary))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in load_spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
