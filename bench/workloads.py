"""The benchmark's seeded workloads.

Every workload turns (seed, pass index) into the inputs the program
receives — a `TrialConfig`, or a tuple of design queries — runs one pass
through the package's public functions, and checks the pass's output.
Pass 0 of seed S writes the same CSV bytes as these commands:

    rate_sweep        ucamimo simulate --seed S --lambda 0.004 --trials 20
    bit_sweep         ucamimo codebook --seed S --trials 8
    rate_sweep_exact  ucamimo simulate --seed S --lambda 0.004 --trials 40
                          --ns-list 8,16 --dist-list 100,500 --range-all deg:15
                          --exact-geometry

Later passes draw fresh seeds from (S, pass index), so a cache keyed on
inputs cannot make repeated passes cheaper than a user's fresh run.

Functions are always looked up on their module at call time
(``sim.run_rate_sweep``, not a local binding), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ucamimo import design, sim

import checks

WAVELENGTH = 0.004
BETA_MAX = 14.0
DESIGN_NS = (4, 8, 16, 64)
DESIGN_QUERIES = 8  # queries per design_grid pass
CODEBOOK_SAMPLES = 2  # (trial, codebook) pairs per pass rescored entry by entry
BETA_SAMPLES = 12  # random betas per design query tried against the optimum


def pass_seed(seed: int, index: int) -> int:
    """The campaign seed of a pass: the run's own seed first, then derived ones."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def check_rng(seed: int) -> np.random.Generator:
    """Stream choosing which outputs a pass's checks rescore in depth."""
    return np.random.default_rng([seed, 0x636865636B])


@dataclass
class Workload:
    name: str
    item: str

    @property
    def threads(self) -> int:
        """Threads a pass keeps busy, for calibrating its timings."""
        return 1

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def items(self, inputs) -> int:
        """Items one pass over these inputs attempts."""
        raise NotImplementedError

    def run(self, inputs, csv_path):
        """One pass; returns (output, per-query latencies or None)."""
        raise NotImplementedError

    def csv_bytes(self, inputs, output, csv_path) -> bytes:
        with open(csv_path, "rb") as fh:
            return fh.read()

    def check(self, inputs, output, csv: bytes, key: int) -> checks.Report:
        """Check one pass; `key` seeds the choice of outputs rescored in depth."""
        raise NotImplementedError


class DesignGrid(Workload):
    def inputs(self, seed, index):
        rng = np.random.default_rng([seed, index])
        out = []
        for q in range(DESIGN_QUERIES):
            n = DESIGN_NS[q % len(DESIGN_NS)]
            snr_db = float(rng.uniform(0.0, 30.0))
            theta_o = float(rng.uniform(0.0, math.pi / n))
            distance = float(rng.uniform(50.0, 500.0))
            out.append((n, theta_o, snr_db, distance))
        return tuple(out)

    def items(self, inputs):
        return len(inputs)

    def run(self, inputs, csv_path):
        results, latencies = [], []
        perf = time.perf_counter
        for n, theta_o, snr_db, distance in inputs:
            t0 = perf()
            results.append(
                design.search_beta_opt(
                    n, theta_o, snr_db, beta_max=BETA_MAX, wavelength=WAVELENGTH, distance=distance
                )
            )
            latencies.append(perf() - t0)
        return results, latencies

    def csv_bytes(self, inputs, output, csv_path):
        # The fields `ucamimo design` prints, one query per line.
        lines = ["n_antennas,snr_db,theta_o,beta_opt,radius_equal_m,radii_product_m2,"
                 "capacity_bps_hz,condition_number"]
        for (n, theta_o, snr_db, _), r in zip(inputs, output):
            lines.append(",".join([str(n)] + [f"{v:.9g}" for v in (
                snr_db, theta_o, r.beta_opt, r.radius_equal, r.radii_product,
                r.capacity, r.condition_number)]))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def check(self, inputs, output, csv, key):
        return checks.check_design(inputs, output, WAVELENGTH, BETA_MAX,
                                   check_rng(key), BETA_SAMPLES)


@dataclass
class Campaign(Workload):
    n_trials: int = 20
    n_antennas: tuple = (4, 8, 12, 16)
    distances: tuple = (100.0, 200.0, 300.0, 400.0, 500.0)
    wavelength: float = WAVELENGTH
    range_deg: float = 10.0
    exact_geometry: bool = False
    bit_sweep: bool = False
    jobs: int = 1

    def __post_init__(self):
        self._radii: dict = {}

    @property
    def threads(self) -> int:
        return self.jobs

    def inputs(self, seed, index):
        return sim.TrialConfig(
            seed=pass_seed(seed, index),
            n_trials=self.n_trials,
            angle_range_small=math.radians(self.range_deg),
            distances=self.distances,
            n_antennas_list=self.n_antennas,
            wavelength=self.wavelength,
            exact_geometry=self.exact_geometry,
        )

    def items(self, inputs):
        cells = 1 if self.bit_sweep else len(inputs.n_antennas_list) * len(inputs.distances)
        return cells * inputs.n_trials

    def run(self, inputs, csv_path):
        if self.bit_sweep:
            rows = sim.run_codebook_bit_sweep(inputs, jobs=self.jobs)
        else:
            rows = sim.run_rate_sweep(inputs, jobs=self.jobs)
        sim.write_csv(rows, csv_path)
        return rows, None

    def check(self, inputs, output, csv, key):
        rng = check_rng(key)
        if self.bit_sweep:
            return checks.check_bit_sweep(inputs, sim.DEFAULT_BIT_GRID, output, csv,
                                          self._radii, rng, CODEBOOK_SAMPLES)
        return checks.check_rate_sweep(inputs, output, csv, self._radii, rng, CODEBOOK_SAMPLES)


def make_workloads(jobs: int) -> dict[str, Workload]:
    """All workloads at their benchmark sizes, keyed by name."""
    items = [
        DesignGrid("design_grid", "query"),
        Campaign("rate_sweep", "trial of one (N, D) cell, all six schemes", jobs=jobs),
        Campaign(
            "bit_sweep", "trial, all 22 codebooks",
            n_trials=8, n_antennas=(16,), distances=(300.0,),
            wavelength=sim.DEFAULT_WAVELENGTH, bit_sweep=True, jobs=jobs,
        ),
        Campaign(
            "rate_sweep_exact", "trial of one (N, D) cell, all six schemes",
            n_trials=40, n_antennas=(8, 16), distances=(100.0, 500.0),
            range_deg=15.0, exact_geometry=True, jobs=jobs,
        ),
    ]
    return {w.name: w for w in items}
