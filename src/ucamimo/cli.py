"""Command-line interface.

Subcommands: ``design`` (optimal sizing for a given antenna count and SNR),
``spectrum`` (singular-value sweeps), ``capacity-sweep`` (capacity against
beta), ``simulate`` (Monte-Carlo rate sweep) and ``codebook`` (codebook
bit-budget sweep).  Units are metres, dB and radians; any angle option also
accepts a ``deg:`` prefix (e.g. ``deg:10``).  A flat key=value config file
(``--config``) can supply any of the subcommand's options, and command-line
flags override it.  Its keys must equal the subcommand's long option names
(hyphens or underscores); an unknown key exits 2 and names the file and
line.  true/false apply only to switches; every other value is checked
exactly as the same value given as a flag.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import design, sim, spectrum
from .geometry import _require_even

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

# TrialConfig's fields with their defaults (the seed has none); a campaign option that
# sets a field is named after it and defaults to its default
_TRIAL_FIELDS = {field.name: field.default for field in dataclasses.fields(sim.TrialConfig)}


def finite_float(text: str) -> float:
    """A float option value; NaN and infinities are rejected here, at the boundary."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text.strip()!r}")
    return value


def antenna_count(text: str) -> int:
    """An antenna count option value; the one rule on antenna counts is checked here."""
    value = int(text)
    try:
        _require_even(value, "antenna count")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def parse_angle(text: str) -> float:
    """Radians from a CLI angle: plain float, or 'deg:<value>' in degrees."""
    text = text.strip()
    if text.startswith("deg:"):
        return math.radians(finite_float(text[4:]))
    return finite_float(text)


def parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(finite_float(x) for x in text.split(",") if x.strip())


def parse_antenna_list(text: str) -> tuple[int, ...]:
    return tuple(antenna_count(x) for x in text.split(",") if x.strip())


def parse_bit_grid(text: str) -> tuple[tuple[int, int], ...]:
    """Parse 'L1:L2,L1:L2,...' into bit pairs."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        l1, _, l2 = chunk.partition(":")
        pairs.append((int(l1), int(l2)))
    return tuple(pairs)


def load_config_args(path: str, name: str, command: argparse.ArgumentParser) -> list[str]:
    """Turn a flat key=value file into argv fragments for subcommand `name`.

    Each key (hyphens or underscores) must equal one of `command`'s long
    option names other than --config and --help; any other key is an error
    that names the file and line.  true/false set or clear a switch, and
    are the only values a switch takes.  Every other value becomes one
    `--key=value` token, so argparse gives it the option's own type,
    choices and required checks, and a value that starts with '-' stays a
    value.  `main` puts the fragments before the user's flags, which
    therefore override the file.
    """
    actions = {option: action for action in command._actions for option in action.option_strings
               if option not in ("--config", "--help")}
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
            action = actions.get(f"--{key}")
            if action is None:
                raise ValueError(f"{path}:{lineno}: {name} has no option --{key}")
            if not isinstance(action, argparse._StoreTrueAction):
                args.append(f"--{key}={value}")
            elif value.lower() not in ("true", "false"):
                raise ValueError(f"{path}:{lineno}: switch --{key} takes true or false, got {value!r}")
            elif value.lower() == "true":
                args.append(f"--{key}")
    return args


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, declared once for every subcommand that shares it."""
    parent = argparse.ArgumentParser(prog="ucamimo", add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _field_option(parser: argparse.ArgumentParser, flag: str, field: str, **kwargs) -> None:
    """A campaign option that sets TrialConfig's `field` and defaults to that field's default."""
    parser.add_argument(flag, dest=field, default=_TRIAL_FIELDS[field], **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucamimo",
        description="Design and simulate line-of-sight MIMO links between uniform circular arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _parent("--config", help="flat key=value config file (flags override it)")
    snr = _parent("--snr-db", type=finite_float, default=15.0)
    beta_max = _parent("--beta-max", type=finite_float, default=14.0)
    out = _parent("--out", help="output CSV path (default stdout)")
    # the options simulate and codebook share
    campaign = argparse.ArgumentParser(add_help=False, parents=[snr, out])
    campaign.add_argument("--seed", type=int, required=True, help="RNG seed (runs are byte-reproducible)")
    _field_option(campaign, "--trials", "n_trials", type=int)
    _field_option(campaign, "--lambda", "wavelength", type=finite_float)
    _field_option(campaign, "--design-dist", "design_distance", type=finite_float)
    _field_option(campaign, "--range-all", "angle_range_small", type=parse_angle,
                  help="half-range of the small misalignment angles")
    _field_option(campaign, "--theta-cs-range", "theta_cs_range", type=parse_angle)

    p = sub.add_parser("design", parents=[common, snr, beta_max],
                       help="optimal beta, radii and capacity for one configuration")
    p.add_argument("--ns", type=antenna_count, default=8, help="number of antennas (even)")
    p.add_argument("--lambda", dest="wavelength", type=finite_float, default=0.004, help="wavelength [m]")
    p.add_argument("--dist", type=finite_float, default=100.0, help="centre distance [m]")
    p.add_argument("--theta-o", type=parse_angle, default=0.0, help="rotation angle [rad or deg:x]")
    p.add_argument("--resolution", type=finite_float, default=0.01)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("spectrum", parents=[common, out],
                       help="singular values along a beta or theta_o sweep")
    p.add_argument("--ns", type=antenna_count, default=8)
    p.add_argument("--axis", choices=("beta", "theta_o"), default="beta")
    p.add_argument("--beta", type=finite_float, default=3.1, help="fixed beta for the theta_o axis")
    p.add_argument("--theta-o", type=parse_angle, default=0.0, help="fixed rotation for the beta axis")
    p.add_argument("--start", type=parse_angle, default=None)
    p.add_argument("--stop", type=parse_angle, default=None)
    p.add_argument("--num", type=int, default=601, help="number of grid points")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("capacity-sweep", parents=[common, snr, beta_max, out],
                       help="water-filled capacity against beta")
    p.add_argument("--ns", type=antenna_count, default=8)
    p.add_argument("--theta-o", type=parse_angle, default=0.0)
    p.add_argument("--step", type=finite_float, default=0.01)
    p.set_defaults(func=cmd_capacity_sweep)

    p = sub.add_parser("simulate", parents=[common, campaign],
                       help="Monte-Carlo rate sweep over antennas and distances")
    _field_option(p, "--ns-list", "n_antennas_list", type=parse_antenna_list)
    _field_option(p, "--dist-list", "distances", type=parse_float_list)
    p.add_argument("--l1", type=int, default=_TRIAL_FIELDS["codebook_bits"][0], help="azimuth codebook bits")
    p.add_argument("--l2", type=int, default=_TRIAL_FIELDS["codebook_bits"][1], help="polar codebook bits")
    p.add_argument("--exact-geometry", action="store_true",
                   help="build channels from exact distances instead of the separable model")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("codebook", parents=[common, campaign], help="codebook rate against the bit budget")
    p.add_argument("--ns", type=antenna_count, default=16)
    p.add_argument("--dist", type=finite_float, default=300.0)
    p.add_argument("--bit-grid", type=parse_bit_grid, default=sim.DEFAULT_BIT_GRID,
                   help="comma-separated L1:L2 pairs")
    p.set_defaults(func=cmd_codebook)

    return parser


def cmd_design(args) -> int:
    result = design.search_beta_opt(
        args.ns,
        args.theta_o,
        args.snr_db,
        beta_max=args.beta_max,
        resolution=args.resolution,
        wavelength=args.wavelength,
        distance=args.dist,
    )
    fields = {
        "n_antennas": args.ns,
        "snr_db": args.snr_db,
        "theta_o": args.theta_o,
        "beta_opt": result.beta_opt,
        "radius_equal_m": result.radius_equal,
        "radii_product_m2": result.radii_product,
        "capacity_bps_hz": result.capacity,
        "condition_number": result.condition_number,
    }
    texts = dict(zip(fields, sim.table_texts([fields.values()])[0]))
    sim.write_text("".join(f"{key}: {text}\n" for key, text in texts.items()), None)
    if result.at_edge:
        print(
            f"note: beta_opt {texts['beta_opt']} lies within --resolution of --beta-max "
            f"{args.beta_max:g}; capacity may still rise beyond it, so raise --beta-max",
            file=sys.stderr,
        )
    return 0


def cmd_spectrum(args) -> int:
    if args.num < 1:
        raise ValueError("--num must be at least 1")
    if args.axis == "beta":
        start = 0.0 if args.start is None else args.start
        stop = 14.0 if args.stop is None else args.stop
        betas = np.linspace(start, stop, args.num)
        thetas = np.full(args.num, args.theta_o)
    else:
        limit = math.pi / args.ns
        start = -limit if args.start is None else args.start
        stop = limit if args.stop is None else args.stop
        thetas = np.linspace(start, stop, args.num)
        betas = np.full(args.num, args.beta)

    sigmas = spectrum.singular_values_many(args.ns, betas, thetas)
    header = "beta,theta_o," + ",".join(f"sigma_{k}" for k in range(1, args.ns + 1))
    sim.write_text(sim.csv_text(header, np.column_stack([betas, thetas, sigmas]).tolist()), args.out)
    return 0


def cmd_capacity_sweep(args) -> int:
    # capacity_curve checks the grid too, but names its own parameters, not these flags
    if args.step <= 0.0:
        raise ValueError(f"--step must be positive, got {args.step:g}")
    if args.step > args.beta_max:
        raise ValueError(f"--step {args.step:g} exceeds --beta-max {args.beta_max:g}; the beta grid is empty")
    betas, caps = design.capacity_curve(args.ns, args.theta_o, args.snr_db, args.beta_max, args.step)
    sim.write_text(sim.csv_text("beta,capacity_bps_hz", zip(betas.tolist(), caps.tolist())), args.out)
    return 0


def _trial_config(args, **own) -> sim.TrialConfig:
    """The config from every option named after a TrialConfig field; `own` sets the fields no option names."""
    named = {name: value for name, value in vars(args).items() if name in _TRIAL_FIELDS}
    return sim.TrialConfig(**named, **own)


def cmd_simulate(args) -> int:
    trial_cfg = _trial_config(args, codebook_bits=(args.l1, args.l2))
    sim.write_csv(sim.run_rate_sweep(trial_cfg), args.out)
    return 0


def cmd_codebook(args) -> int:
    trial_cfg = _trial_config(args, n_antennas_list=(args.ns,), distances=(args.dist,))
    sim.write_csv(sim.run_codebook_bit_sweep(trial_cfg, bit_grid=args.bit_grid), args.out)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    # The file's values go in front of the user's flags, which then override them; the
    # pre-scan resolves --config as the full parse does (prefixes, --config=path).  With no
    # subcommand first, no file is read and argparse reports the error.
    try:
        command = commands.get(argv[0]) if argv else None
        config_path = None if command is None else _parent("--config").parse_known_args(argv[1:])[0].config
        config_args = [] if config_path is None else load_config_args(config_path, argv[0], command)
        args = parser.parse_args(argv[:1] + config_args + argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so numerical failures go first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: NumPy refuses an array that an oversized request asks for
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
