"""Output checks for every benchmark pass.

Each check recomputes what it can through a path independent of the one
the program took (numerical SVD of the channel built from the same seeded
draw, per-entry precoded rates instead of the batched codebook scorer)
and marks an item failed when any of its outputs disagrees.  An item is
one design query, or one trial of one campaign cell with all its schemes.
"""

from __future__ import annotations

import math

import numpy as np

from ucamimo import channel, design, geometry, sim, transceiver

REL_TOL = 1e-9  # relative agreement of two computations of one quantity
RATE_SLACK = 1e-9  # bit/s/Hz a rate may fall outside [0, capacity] by rounding
CSV_REL_TOL = 1e-8  # 9 significant digits in the CSV
COND_REL_TOL = 1e-6
COND_CHECK_LIMIT = 1e6  # condition numbers above this are too ill-posed to compare
SINGULAR_REL = 1e-8  # smallest/largest singular value treated as singular
GLOBAL_OPT_SLACK = 1e-3  # bit/s/Hz a sampled beta may beat the searched optimum by
MAX_MESSAGES = 10


class Report:
    """Failed items and statistics of one pass."""

    def __init__(self):
        self.failed: set = set()
        self.messages: list[str] = []
        self.stats: dict[str, float] = {}

    def fail(self, item, message: str) -> None:
        self.failed.add(item)
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{item}: {message}")

    def fail_all(self, items, message: str) -> None:
        for item in items:
            self.fail(item, message)


def close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def reference_capacity(h, p_total: float) -> tuple[float, np.ndarray]:
    """Water-filled capacity from the LAPACK singular values of a channel."""
    sig = channel.numerical_svd(h.entries).sigma
    return design.capacity(sig, p_total, 1.0), sig


def best_codebook_rate(h, acfg, cb, alloc) -> float:
    """Best entry rate, scored one precoder at a time."""
    thetas, phis = cb.angle_pairs()
    return max(
        transceiver.precoded_rate(h, transceiver.precoder_from_angles(acfg, t, f), alloc).rate
        for t, f in zip(thetas, phis)
    )


def check_csv(report: Report, rows, csv_bytes: bytes, items) -> None:
    """The written CSV holds exactly the rows, to its 9 significant digits."""
    lines = csv_bytes.decode("utf-8").split("\n")
    if lines[0] != sim.CSV_HEADER or lines[-1] != "" or len(lines) != len(rows) + 2:
        report.fail_all(items, "CSV header, row count or final newline is wrong")
        return
    for row, line in zip(rows, lines[1:-1]):
        f = line.split(",")
        ok = (
            len(f) == 8
            and (f[0], int(f[1]), f[3], int(f[4])) == (row.scenario, row.n_antennas, row.scheme, row.trial)
            and all(
                close(float(text), value, CSV_REL_TOL)
                for text, value in zip(
                    (f[2], f[5], f[6], f[7]),
                    (row.distance_m, row.rate_bps_hz, row.beta, row.cond_number),
                )
            )
        )
        if not ok:
            report.fail_all(items, f"CSV line {line!r} does not match its row")
            return


def check_cond(report: Report, item, cond: float, sig: np.ndarray) -> None:
    """The row's condition number agrees with the channel's singular values.

    An infinite one needs a numerically singular channel; finite ones are
    compared unless both are too large for either to be accurate.
    """
    numerical = sig[0] / sig[-1] if sig[-1] > 0.0 else math.inf
    if math.isinf(cond):
        if sig[-1] > SINGULAR_REL * sig[0]:
            report.fail(item, f"cond is inf but the channel's is {numerical:.6g}")
    elif min(cond, numerical) < COND_CHECK_LIMIT and not close(cond, numerical, COND_REL_TOL):
        report.fail(item, f"cond {cond:.9g} != {numerical:.9g}")


def check_means(report: Report, trial_rows: dict, mean_rows: dict, items) -> None:
    """Mean rows are the means of their trials' rows."""
    for key, mean in mean_rows.items():
        rows = trial_rows[key]
        rate = float(np.mean([r.rate_bps_hz for r in rows]))
        cond = float(np.mean([r.cond_number for r in rows]))
        if not (close(mean.rate_bps_hz, rate, 1e-12) and close(mean.cond_number, cond, 1e-12)
                and mean.beta == rows[0].beta):
            report.fail_all(items, f"mean row {key} does not match its trials")


def design_radius(cache: dict, cfg: sim.TrialConfig, n: int) -> float:
    key = (n, cfg.snr_db, cfg.wavelength, cfg.design_distance)
    if key not in cache:
        cache[key] = design.search_beta_opt(
            n, 0.0, cfg.snr_db, wavelength=cfg.wavelength, distance=cfg.design_distance
        ).radius_equal
    return cache[key]


def check_rate_sweep(cfg: sim.TrialConfig, rows, csv_bytes: bytes, radii: dict,
                     sample_rng: np.random.Generator, codebook_samples: int) -> Report:
    """Check a rate-sweep campaign's rows against recomputed channels.

    On the separable model the capacity and optimal-precoder rows must
    equal the water-filled capacity of the channel's numerical SVD; on the
    exact-distance model every scheme is held to the exact channel's own
    capacity and the capacity row's distance from it is reported as
    ``capacity_row_gap_max``, not failed.
    """
    cells = [(n, d) for n in cfg.n_antennas_list for d in cfg.distances]
    report = Report()
    all_items = [(c, t) for c in range(len(cells)) for t in range(cfg.n_trials)]
    schemes = sim.RATE_SWEEP_SCHEMES
    expected = [
        (n, d, s, t)
        for n, d in cells
        for t in [*range(cfg.n_trials), sim.AGGREGATE_TRIAL]
        for s in schemes
    ]
    got = [(r.n_antennas, r.distance_m, r.scheme, r.trial) for r in rows]
    if got != expected or any(r.scenario != "rate_sweep" for r in rows):
        report.fail_all(all_items, "rows are missing, extra or out of order")
        return report
    check_csv(report, rows, csv_bytes, all_items)

    exact = cfg.exact_geometry
    model = channel.EXACT_DISTANCE if exact else channel.APPROXIMATE
    p_total = 10.0 ** (cfg.snr_db / 10.0)
    per_cell = len(schemes) * (cfg.n_trials + 1)
    sampled = set(
        map(tuple, zip(sample_rng.integers(len(cells), size=codebook_samples),
                       sample_rng.integers(cfg.n_trials, size=codebook_samples)))
    )
    cb = transceiver.build_codebook(*cfg.codebook_bits)
    gap_max = 0.0
    inf_rows = negative = beats_row = 0
    for c, (n, d) in enumerate(cells):
        radius = design_radius(radii, cfg, n)
        acfg = geometry.ArrayConfig(n, cfg.wavelength, radius, radius, d)
        block = rows[c * per_cell:(c + 1) * per_cell]
        trial_rows: dict = {s: [] for s in schemes}
        for t in range(cfg.n_trials):
            item = (c, t)
            by_scheme = {r.scheme: r for r in block[t * len(schemes):(t + 1) * len(schemes)]}
            for r in by_scheme.values():
                trial_rows[r.scheme].append(r)
            rates = {s: r.rate_bps_hz for s, r in by_scheme.items()}
            conds = {r.cond_number for r in by_scheme.values()}
            cond = by_scheme["capacity"].cond_number
            inf_rows += sum(math.isinf(r.cond_number) for r in by_scheme.values())
            negative += sum(v < 0.0 for v in rates.values())
            if any(r.beta != acfg.beta for r in by_scheme.values()) or len(conds) != 1:
                report.fail(item, "beta or cond differs between the trial's rows")
            if not all(math.isfinite(v) and v >= -RATE_SLACK for v in rates.values()) or rates["capacity"] <= 0.0:
                report.fail(item, f"rate not finite or below 0: {rates}")
                continue

            mis = sim.draw_misalignment(sim.trial_rng(cfg.seed, t), cfg, n)
            h = channel.build_channel(acfg, mis, model)
            ref_cap, sig = reference_capacity(h, p_total)
            gap_max = max(gap_max, abs(rates["capacity"] - ref_cap))
            beats_row += any(rates[s] > rates["capacity"] + RATE_SLACK for s in schemes[1:])
            if not exact:
                for s in ("capacity", "optimal-precoder"):
                    if not close(rates[s], ref_cap, REL_TOL):
                        report.fail(item, f"{s} {rates[s]!r} != recomputed capacity {ref_cap!r}")
                check_cond(report, item, cond, sig)
            for s in schemes[1:]:
                if rates[s] > ref_cap + RATE_SLACK:
                    report.fail(item, f"{s} {rates[s]!r} exceeds capacity {ref_cap!r}")
            for s in ("zf", "zf-sic"):
                if rates[s] == 0.0 and not (math.isinf(cond) or sig[-1] <= SINGULAR_REL * sig[0]):
                    report.fail(item, f"{s} scored 0 on a full-rank channel with finite cond")
            if item in sampled:
                alloc = transceiver.approx_power_allocation(acfg, cfg.snr_db)
                best = best_codebook_rate(h, acfg, cb, alloc)
                if not close(rates["codebook"], best, REL_TOL):
                    report.fail(item, f"codebook {rates['codebook']!r} != best entry {best!r}")
        mean_rows = {r.scheme: r for r in block[-len(schemes):]}
        check_means(report, trial_rows, mean_rows, [(c, t) for t in range(cfg.n_trials)])
    report.stats = {"capacity_row_gap_max": gap_max, "inf_cond_rows": inf_rows,
                    "negative_rate_rows": negative, "trials_beating_capacity_row": beats_row}
    return report


def check_bit_sweep(cfg: sim.TrialConfig, bit_grid, rows, csv_bytes: bytes, radii: dict,
                    sample_rng: np.random.Generator, codebook_samples: int) -> Report:
    """Check a codebook bit sweep: every codebook's rate against the channel.

    Each trial's 22 codebook rates must be finite, nonnegative and within
    the channel's recomputed capacity; a seeded sample of (trial,
    codebook) pairs is rescored entry by entry.
    """
    n, d = cfg.n_antennas_list[0], cfg.distances[0]
    report = Report()
    all_items = list(range(cfg.n_trials))
    methods = (transceiver.SINE_UNIFORM, transceiver.LINEAR)
    cells = [(l1, l2, m) for l1, l2 in bit_grid for m in methods]
    expected = [
        (f"bit_sweep_L1{l1}_L2{l2}", f"codebook-{m}", t)
        for l1, l2, m in cells
        for t in [*range(cfg.n_trials), sim.AGGREGATE_TRIAL]
    ]
    got = [(r.scenario, r.scheme, r.trial) for r in rows]
    if got != expected or any((r.n_antennas, r.distance_m) != (n, d) for r in rows):
        report.fail_all(all_items, "rows are missing, extra or out of order")
        return report
    check_csv(report, rows, csv_bytes, all_items)

    radius = design_radius(radii, cfg, n)
    acfg = geometry.ArrayConfig(n, cfg.wavelength, radius, radius, d)
    p_total = 10.0 ** (cfg.snr_db / 10.0)
    per_cell = cfg.n_trials + 1
    sampled = {
        int(t): int(k)
        for t, k in zip(sample_rng.integers(cfg.n_trials, size=codebook_samples),
                        sample_rng.integers(len(cells), size=codebook_samples))
    }
    inf_rows = 0
    for t in range(cfg.n_trials):
        trial_rows = [rows[k * per_cell + t] for k in range(len(cells))]
        rates = [r.rate_bps_hz for r in trial_rows]
        cond = trial_rows[0].cond_number
        inf_rows += sum(math.isinf(r.cond_number) for r in trial_rows)
        if any(r.beta != acfg.beta or r.cond_number != cond for r in trial_rows):
            report.fail(t, "beta or cond differs between the trial's rows")
        if not all(math.isfinite(v) and v >= -RATE_SLACK for v in rates):
            report.fail(t, f"rate not finite or below 0: {rates}")
            continue
        mis = sim.draw_misalignment(sim.trial_rng(cfg.seed, t), cfg, n)
        h = channel.build_channel(acfg, mis)
        ref_cap, sig = reference_capacity(h, p_total)
        check_cond(report, t, cond, sig)
        worst = max(rates)
        if worst > ref_cap + RATE_SLACK:
            report.fail(t, f"codebook rate {worst!r} exceeds capacity {ref_cap!r}")
        if t in sampled:
            l1, l2, method = cells[sampled[t]]
            cb = transceiver.build_codebook(l1, l2, quantization=method)
            alloc = transceiver.approx_power_allocation(acfg, cfg.snr_db)
            best = best_codebook_rate(h, acfg, cb, alloc)
            if not close(rates[sampled[t]], best, REL_TOL):
                report.fail(t, f"codebook {cells[sampled[t]]} {rates[sampled[t]]!r} != best entry {best!r}")
    for k in range(len(cells)):
        block = rows[k * per_cell:(k + 1) * per_cell]
        check_means(report, {k: block[:-1]}, {k: block[-1]}, all_items)
    report.stats = {"capacity_row_gap_max": 0.0, "inf_cond_rows": inf_rows}
    return report


def check_design(queries, results, wavelength: float, beta_max: float,
                 sample_rng: np.random.Generator, beta_samples: int) -> Report:
    """Check design queries against channels built at the reported optimum.

    The reported capacity and condition number must match the numerical
    SVD of the channel realised by the reported radii, and no beta sampled
    uniformly over the search range may beat the reported capacity.
    """
    report = Report()
    for q, ((n, theta_o, snr_db, distance), res) in enumerate(zip(queries, results)):
        p_total = 10.0 ** (snr_db / 10.0)
        if not (0.0 < res.beta_opt <= beta_max and math.isfinite(res.capacity) and res.capacity > 0.0):
            report.fail(q, f"beta_opt {res.beta_opt!r} or capacity {res.capacity!r} out of range")
            continue
        radius = math.sqrt(res.beta_opt * wavelength * distance / (2.0 * math.pi))
        if not (close(res.radius_equal, radius, 1e-12) and close(res.radii_product, radius**2, 1e-12)):
            report.fail(q, f"radius {res.radius_equal!r} does not realise beta {res.beta_opt!r}")
            continue
        mis = geometry.Misalignment(theta_o=theta_o)
        acfg = geometry.ArrayConfig(n, wavelength, radius, radius, distance)
        ref_cap, sig = reference_capacity(channel.build_channel(acfg, mis), p_total)
        if not close(res.capacity, ref_cap, REL_TOL):
            report.fail(q, f"capacity {res.capacity!r} != recomputed {ref_cap!r}")
        check_cond(report, q, res.condition_number, sig)
        for beta in sample_rng.uniform(0.0, beta_max, size=beta_samples):
            r = math.sqrt(beta * wavelength * distance / (2.0 * math.pi))
            other = geometry.ArrayConfig(n, wavelength, r, r, distance)
            cap, _ = reference_capacity(channel.build_channel(other, mis), p_total)
            if cap > res.capacity + GLOBAL_OPT_SLACK:
                report.fail(q, f"beta {beta:.6g} reaches {cap!r} > optimum {res.capacity!r}")
                break
    report.stats = {"capacity_row_gap_max": 0.0, "inf_cond_rows": 0}
    return report
