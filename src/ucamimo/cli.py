"""Command-line interface.

Subcommands: ``design`` (optimal sizing for a given antenna count and SNR),
``spectrum`` (singular-value sweeps), ``capacity-sweep`` (capacity against
beta), ``simulate`` (Monte-Carlo rate sweep) and ``codebook`` (codebook
bit-budget sweep).  Units are metres, dB and radians; any angle option also
accepts a ``deg:`` prefix (e.g. ``deg:10``).  A flat key=value config file
can supply defaults; command-line flags override it.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import design, sim, spectrum
from .channel import SvdConvergenceError

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def finite_float(text: str) -> float:
    """A float option value; NaN and infinities are rejected here, at the boundary."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text.strip()!r}")
    return value


def parse_angle(text: str) -> float:
    """Radians from a CLI angle: plain float, or 'deg:<value>' in degrees."""
    text = text.strip()
    if text.startswith("deg:"):
        return math.radians(finite_float(text[4:]))
    return finite_float(text)


def parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(finite_float(x) for x in text.split(",") if x.strip())


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def parse_bit_grid(text: str) -> tuple[tuple[int, int], ...]:
    """Parse 'L1:L2,L1:L2,...' into bit pairs."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        l1, _, l2 = chunk.partition(":")
        pairs.append((int(l1), int(l2)))
    if not pairs:
        raise ValueError("empty bit grid")
    return tuple(pairs)


def load_config_args(path: str) -> list[str]:
    """Turn a flat key=value file into argv fragments.

    Keys mirror the long flag names (hyphens or underscores both work);
    boolean flags take true/false values.  Because these fragments are
    prepended to the user's argv, explicit flags override the file.
    """
    args: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    args.append(f"--{key}")
            else:
                args.extend((f"--{key}", value))
    return args


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucamimo",
        description="Design and simulate line-of-sight MIMO links between uniform circular arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimal beta, radii and capacity for one configuration")
    _add_common(p)
    p.add_argument("--ns", type=int, default=8, help="number of antennas (even)")
    p.add_argument("--snr-db", type=finite_float, default=15.0)
    p.add_argument("--lambda", dest="wavelength", type=finite_float, default=0.004, help="wavelength [m]")
    p.add_argument("--dist", type=finite_float, default=100.0, help="centre distance [m]")
    p.add_argument("--theta-o", type=parse_angle, default=0.0, help="rotation angle [rad or deg:x]")
    p.add_argument("--beta-max", type=finite_float, default=14.0)
    p.add_argument("--resolution", type=finite_float, default=0.01)
    p.add_argument("--curve-out", help="optional CSV of the capacity-vs-beta curve")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("spectrum", help="singular values along a beta or theta_o sweep")
    _add_common(p)
    p.add_argument("--ns", type=int, default=8)
    p.add_argument("--axis", choices=("beta", "theta_o"), default="beta")
    p.add_argument("--beta", type=finite_float, default=3.1, help="fixed beta for the theta_o axis")
    p.add_argument("--theta-o", type=parse_angle, default=0.0, help="fixed rotation for the beta axis")
    p.add_argument("--start", type=parse_angle, default=None)
    p.add_argument("--stop", type=parse_angle, default=None)
    p.add_argument("--num", type=int, default=601, help="number of grid points")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("capacity-sweep", help="water-filled capacity against beta")
    _add_common(p)
    p.add_argument("--ns", type=int, default=8)
    p.add_argument("--snr-db", type=finite_float, default=15.0)
    p.add_argument("--theta-o", type=parse_angle, default=0.0)
    p.add_argument("--beta-max", type=finite_float, default=14.0)
    p.add_argument("--step", type=finite_float, default=0.01)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_capacity_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo rate sweep over antennas and distances")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True, help="RNG seed (runs are byte-reproducible)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ns-list", type=parse_int_list, default=(4, 8, 12, 16))
    p.add_argument("--dist-list", type=parse_float_list, default=(100.0, 200.0, 300.0, 400.0, 500.0))
    p.add_argument("--snr-db", type=finite_float, default=15.0)
    p.add_argument("--lambda", dest="wavelength", type=finite_float, default=sim.DEFAULT_WAVELENGTH)
    p.add_argument("--design-dist", type=finite_float, default=100.0)
    p.add_argument("--l1", type=int, default=5, help="azimuth codebook bits")
    p.add_argument("--l2", type=int, default=3, help="polar codebook bits")
    p.add_argument("--range-all", type=parse_angle, default=math.radians(10.0),
                   help="half-range of the small misalignment angles")
    p.add_argument("--theta-cs-range", type=parse_angle, default=math.pi)
    p.add_argument("--exact-geometry", action="store_true",
                   help="build channels from exact distances instead of the separable model")
    p.add_argument("--jobs", type=int, help="deprecated and ignored; to be removed")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("codebook", help="codebook rate against the bit budget")
    _add_common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ns", type=int, default=16)
    p.add_argument("--dist", type=finite_float, default=300.0)
    p.add_argument("--snr-db", type=finite_float, default=15.0)
    p.add_argument("--lambda", dest="wavelength", type=finite_float, default=sim.DEFAULT_WAVELENGTH)
    p.add_argument("--design-dist", type=finite_float, default=100.0)
    p.add_argument("--bit-grid", type=parse_bit_grid, default=sim.DEFAULT_BIT_GRID,
                   help="comma-separated L1:L2 pairs")
    p.add_argument("--range-all", type=parse_angle, default=math.radians(10.0))
    p.add_argument("--theta-cs-range", type=parse_angle, default=math.pi)
    p.add_argument("--jobs", type=int, help="deprecated and ignored; to be removed")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_codebook)

    return parser


def _check_even_ns(ns: int) -> None:
    if ns < 2 or ns % 2 != 0:
        raise ValueError(f"--ns must be an even integer >= 2, got {ns}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_design(args) -> int:
    _check_even_ns(args.ns)
    result = design.search_beta_opt(
        args.ns,
        args.theta_o,
        args.snr_db,
        beta_max=args.beta_max,
        resolution=args.resolution,
        wavelength=args.wavelength,
        distance=args.dist,
    )
    print(f"n_antennas: {args.ns}")
    print(f"snr_db: {args.snr_db:.9g}")
    print(f"theta_o: {args.theta_o:.9g}")
    print(f"beta_opt: {result.beta_opt:.9g}")
    print(f"radius_equal_m: {result.radius_equal:.9g}")
    print(f"radii_product_m2: {result.radii_product:.9g}")
    print(f"capacity_bps_hz: {result.capacity:.9g}")
    print(f"condition_number: {result.condition_number:.9g}")
    if result.beta_opt >= args.beta_max - args.resolution:
        print(
            f"note: beta_opt {result.beta_opt:.9g} lies within --resolution of --beta-max "
            f"{args.beta_max:g}; capacity may still rise beyond it, so raise --beta-max",
            file=sys.stderr,
        )
    if args.curve_out:
        _write_capacity_curve(args.ns, args.theta_o, args.snr_db, args.beta_max,
                              args.resolution, args.curve_out)
    return 0


def _write_capacity_curve(ns, theta_o, snr_db, beta_max, step, out) -> None:
    p_total = 10.0 ** (snr_db / 10.0)
    betas = np.arange(step, beta_max + step / 2.0, step)
    caps = design.capacity(spectrum.singular_values_many(ns, betas, theta_o), p_total, 1.0)
    lines = ["beta,capacity_bps_hz", *(f"{b:.9g},{c:.9g}" for b, c in zip(betas, caps))]
    _emit("\n".join(lines) + "\n", out)


def cmd_spectrum(args) -> int:
    _check_even_ns(args.ns)
    if args.num < 1:
        raise ValueError("--num must be at least 1")
    if args.axis == "beta":
        start = 0.0 if args.start is None else args.start
        stop = 14.0 if args.stop is None else args.stop
        betas = np.linspace(start, stop, args.num)
        if np.any(betas < 0.0):
            raise ValueError("beta grid must be nonnegative")
        thetas = np.full(args.num, args.theta_o)
    else:
        limit = math.pi / args.ns
        start = -limit if args.start is None else args.start
        stop = limit if args.stop is None else args.stop
        thetas = np.linspace(start, stop, args.num)
        betas = np.full(args.num, args.beta)

    sigmas = spectrum.singular_values_many(args.ns, betas, thetas)
    header = "beta,theta_o," + ",".join(f"sigma_{k}" for k in range(1, args.ns + 1))
    lines = [header]
    for beta, theta, sig in zip(betas, thetas, sigmas):
        lines.append(f"{beta:.9g},{theta:.9g}," + ",".join(f"{s:.9g}" for s in sig))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_capacity_sweep(args) -> int:
    _check_even_ns(args.ns)
    if args.step <= 0.0 or args.beta_max <= 0.0:
        raise ValueError("--step and --beta-max must be positive")
    _write_capacity_curve(args.ns, args.theta_o, args.snr_db, args.beta_max, args.step, args.out)
    return 0


def _trial_config(args, ns_list, dist_list) -> sim.TrialConfig:
    if args.jobs is not None:
        print("note: --jobs is deprecated and ignored; campaigns run without a worker pool",
              file=sys.stderr)
    return sim.TrialConfig(
        seed=args.seed,
        n_trials=args.trials,
        angle_range_small=args.range_all,
        theta_cs_range=args.theta_cs_range,
        snr_db=args.snr_db,
        distances=dist_list,
        n_antennas_list=ns_list,
        codebook_bits=(getattr(args, "l1", 5), getattr(args, "l2", 3)),
        wavelength=args.wavelength,
        design_distance=args.design_dist,
        exact_geometry=getattr(args, "exact_geometry", False),
    )


def cmd_simulate(args) -> int:
    for ns in args.ns_list:
        _check_even_ns(ns)
    trial_cfg = _trial_config(args, tuple(args.ns_list), tuple(args.dist_list))
    rows = sim.run_rate_sweep(trial_cfg)
    _emit(sim.rows_to_csv(rows), args.out)
    return 0


def cmd_codebook(args) -> int:
    _check_even_ns(args.ns)
    trial_cfg = _trial_config(args, (args.ns,), (args.dist,))
    rows = sim.run_codebook_bit_sweep(trial_cfg, bit_grid=args.bit_grid)
    _emit(sim.rows_to_csv(rows), args.out)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # Pre-scan for --config so file values become leading (overridable) args.
    config_path = None
    for at, token in enumerate(argv):
        if token == "--config" and at + 1 < len(argv):
            config_path = argv[at + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is not None:
        try:
            config_args = load_config_args(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        argv = argv[:1] + config_args + argv[1:]

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except (SvdConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so numerical failures go first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
