"""Command-line front end.

Subcommands: partition (orbit inspection), spectrum (eigenvalue point clouds
as CSV or SVG), lsd / gumbel (limit-law and spectral-radius experiments with
JSON reports), verify (formula-vs-dense sweep), tail (tail-probability table).

Exit codes: 0 pass, 1 statistical failure, 2 usage or hypothesis error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import shutil
import sys

import numpy as np

from . import extremes, montecarlo, spectral
from ._textio import write_rows, write_text
from .numtheory import decompose, orbit_summary
from .seeding import INPUT_LAWS, LAW_ALIASES, derive_trial_seed, input_law

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_text(path: str, data: str) -> None:
    """Write a report to the file at path, or to stdout for "-"."""
    write_text(path, data)


def _finite_float(text: str) -> float:
    """argparse type of the tolerance and fuzz flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _x_values(text: str) -> list[float]:
    """argparse type of tail's --x: comma- or space-separated finite values >= 0."""
    values = [_finite_float(token) for token in text.replace(",", " ").split()]
    if any(x < 0 for x in values):
        raise argparse.ArgumentTypeError(f"expected nonnegative numbers, got {text!r}")
    return values


def _config_tokens(path: str) -> list[str]:
    """Turn a flat key=value file, keys named as flags, into --key=value tokens."""
    tokens = []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            tokens.append(f"--{key.strip().lower().replace('_', '-')}={value.strip()}")
    return tokens


def cmd_partition(args) -> int:
    params = decompose(args.n, args.k)
    orbits = orbit_summary(params)
    hist, blocks, self_conj = orbits.histogram, orbits.blocks, orbits.self_conjugate
    if args.json:
        import json
        print(json.dumps({
            "n": params.n, "k": params.k, "n_prime": params.n_prime, "k_prime": params.k_prime,
            "common_primes": [{"p": p, "alpha": a, "beta": b}
                              for p, a, b in params.common_primes],
            "zero_multiplicity": params.zero_multiplicity,
            "g1": orbits.g1, "blocks": blocks, "upsilon": str(orbits.upsilon),
            "size_histogram": {str(size): count for size, count in hist.items()},
            "self_conjugate_blocks": self_conj, "paired_blocks": blocks - self_conj,
        }, sort_keys=True, indent=2))
        return EXIT_PASS
    common = " ".join(f"{p}^{b}|n,{p}^{a}|k" for p, a, b in params.common_primes) or "none"
    print(f"n={params.n} k={params.k} n'={params.n_prime} k'={params.k_prime} "
          f"common_primes={common}")
    if params.zero_multiplicity:
        print(f"zero_multiplicity={params.zero_multiplicity} (eigenvalue 0 appears n - n' times)")
    print(f"g1={orbits.g1} blocks={blocks} upsilon={orbits.upsilon}")
    sizes = " ".join(f"{size}x{count}" for size, count in hist.items())
    print(f"block sizes (size x count): {sizes}")
    print(f"conjugacy: {self_conj} self-conjugate, {blocks - self_conj} paired")
    return EXIT_PASS


# Scatter-plot presets mirroring the classic illustration configurations;
# these emit point clouds for visual comparison and assert nothing.
FIGURE_PRESETS = {
    "ring_k1": {"k": 1, "n": 901, "law": "gaussian", "trials": 100},
    "ring_k2": {"k": 2, "n": 901, "law": "gaussian", "trials": 100},
    "cube_minus": {"k": 11, "n": 666, "law": "centered_exponential", "trials": 20},
    "cube_plus": {"k": 11, "n": 665, "law": "centered_exponential", "trials": 20},
    "near_square_minus": {"k": 16, "n": 253, "law": "gaussian", "trials": 100},
    "near_square_plus": {"k": 16, "n": 259, "law": "gaussian", "trials": 100},
}


# Caps the points a run holds: n for CSV, n * trials for SVG. Peak RSS at --k 3 is under 50 MB
# + 160 B a point: CSV 60.5/198.0/520.3 MB at n = 1e5/1e6/3e6, SVG 171.6-225.5 MB at 3e6 points.
SPECTRUM_N_CAP = 3 * 10**6


def _draw_input(law_name: str, seed: int, n: int) -> np.ndarray:
    if law_name == "delta":
        return np.eye(1, n)[0]  # the unit impulse (1, 0, ..., 0)
    return input_law(law_name).sample(np.random.default_rng(seed), n)


def _write_svg(out, points: np.ndarray, title: str) -> None:
    size, margin = 640, 40
    lim = max(1.0, float(np.abs(points.real).max()), float(np.abs(points.imag).max())) * 1.05
    span = size - 2 * margin

    def sx(v):
        return margin + (v + lim) / (2 * lim) * span

    def sy(v):
        return size - margin - (v + lim) / (2 * lim) * span

    header = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(-lim):.2f}" y1="{sy(0):.2f}" x2="{sx(lim):.2f}" '
        f'y2="{sy(0):.2f}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(-lim):.2f}" x2="{sx(0):.2f}" '
        f'y2="{sy(lim):.2f}" stroke="#cccccc" stroke-width="1"/>',
        f'<text x="{margin}" y="{margin - 10}" font-size="14">{title}</text>',
        f'<text x="{margin - 4}" y="{sy(0):.2f}" font-size="10" text-anchor="end">0</text>',
        f'<text x="{sx(lim):.2f}" y="{size - margin + 16}" font-size="10" '
        f'text-anchor="end">{lim:.2f}</text>',
    ]
    write_rows(out, "\n".join(header), [sx(points.real), sy(points.imag)],
               row='<circle cx="%.3f" cy="%.3f" r="1.5" fill="black" fill-opacity="0.35"/>')
    write_text(out, "</svg>\n", append=True)


def cmd_spectrum(args) -> int:
    if args.preset:
        if any(getattr(args, key) is not None for key in FIGURE_PRESETS[args.preset]):
            raise ValueError("--preset conflicts with --k/--n/--law/--trials")
        vars(args).update(FIGURE_PRESETS[args.preset])  # k, n, law and trials
    if args.k is None or args.n is None:
        raise ValueError("spectrum needs --k and --n (or --preset)")
    args.law = args.law or "gaussian"  # --law choices are all non-empty
    args.trials = 1 if args.trials is None else args.trials
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    points = args.n * args.trials if args.format == "svg" else args.n  # held at once
    if not 2 <= args.n or points > SPECTRUM_N_CAP:
        raise ValueError(f"--n must be between 2 and the spectrum cap {SPECTRUM_N_CAP}, and n * "
                         f"trials at most that for SVG; got n = {args.n}, trials = "
                         f"{args.trials}: estimated peak memory {50 + points * 160 / 1e6:.0f} MB")
    n, scale = args.n, 1.0 / math.sqrt(args.n)
    spectra = (spectral.formula_spectrum(_draw_input(args.law, derive_trial_seed(args.seed, t), n),
                                         args.k, n) for t in range(args.trials))
    if args.format == "csv":  # rows go out per trial
        for t, cloud in enumerate(spectra):
            spectral.export_spectrum_csv(cloud, args.out, scale=scale, append=t > 0)
        return EXIT_PASS
    cloud = np.empty(points, complex)  # the scaled points; no spectrum outlives its trial
    for t, result in enumerate(spectra):
        np.multiply(result.eigenvalues, scale, out=cloud[t * n:(t + 1) * n])
    _write_svg(args.out, cloud, f"k={args.k} n={n} law={args.law} trials={args.trials}")
    return EXIT_PASS


def _finish_experiment(report, out_path, summary=None, details="") -> int:
    """Write the report when asked, print the verdict line and details; the exit code."""
    if out_path:
        _write_text(out_path, report.to_json())
    if summary is None:
        summary = " ".join(f"{key}={val:.6g}" for key, val in sorted(report.aggregates.items())
                           if isinstance(val, (int, float)) and not isinstance(val, bool))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} {summary} wall={report.wall_clock_seconds:.2f}s{details}")
    return EXIT_PASS if report.passed else EXIT_STAT_FAIL


def _tolerance_flags(command: str) -> list[str]:
    """The tolerance flags of the kinds command runs, in table order; each sets one key a kind."""
    return list(dict.fromkeys(flag for row in montecarlo.KINDS.values() if row.command == command
                              for _, flag in row.tolerances.values()))


# each theorem lsd checks, and its key in KINDS
_LSD_KINDS = {row.theorem: key for key, row in montecarlo.KINDS.items() if row.command == "lsd"}


def _experiment_config(args, kind: str, **fields) -> montecarlo.ExperimentConfig:
    """The experiment the parsed flags describe; inapplicable flags exit 2."""
    row = montecarlo.KINDS[kind]
    keys = {flag: key for key, (_, flag) in row.tolerances.items()}
    tolerances = {}
    for flag in _tolerance_flags(row.command):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in keys:
            raise ValueError(f"{flag} does not apply to {kind}")
        tolerances[keys[flag]] = value
    return montecarlo.ExperimentConfig(kind=kind, law=args.law, trials=args.trials,
                                       master_seed=args.seed, tolerances=tolerances,
                                       **fields)


def cmd_lsd(args) -> int:
    kind = _LSD_KINDS[args.theorem]
    config = _experiment_config(args, kind, k=args.k, n=args.n, g=args.g)
    return _finish_experiment(montecarlo.run_lsd_experiment(config), args.out)


def cmd_gumbel(args) -> int:
    kk_max = math.isqrt(montecarlo.DFT_EXPERIMENT_CAP - 1)  # n = k^2 + 1 within the cap
    if not 3 <= args.kk <= kk_max:  # k = 3 is the smallest with q = n // 4 >= 2
        raise ValueError(f"--kk must be between 3 and {kk_max}, got {args.kk}")
    config = _experiment_config(args, montecarlo.KIND_GUMBEL, k=args.kk,
                                n=args.kk * args.kk + 1)
    report = montecarlo.run_gumbel_experiment(config)
    if args.csv:
        extremes.export_radii_csv(report.trials, args.csv)
    return _finish_experiment(report, args.out)


def cmd_verify(args) -> int:
    report = montecarlo.oracle_sweep(args.nmax, args.samples, args.seed, fuzz=args.fuzz)
    agg = report.aggregates
    return _finish_experiment(
        report, args.out, f"pairs={agg['pairs']} samples={agg['samples_per_pair']} "
        f"max_distance={agg['max_distance']:.3e} failures={agg['failures']}",
        "".join(f"\n  mismatch at n={f['n']} k={f['k']} distance={f['max_distance']:.3e}"
                for f in agg["failure_list"][:20]))


def cmd_tail(args) -> int:
    xs = [x for chunk in args.x for x in chunk]
    if not xs:
        raise ValueError("tail needs at least one x value")
    print(f"{'x':>12} {'tail':>16} {'asymptotic':>16} {'ratio':>10}")
    for x in xs:
        kb = extremes.kbar(x)
        if x > 0:
            asym = extremes.kbar_asymptotic(x)
            ratio = kb / asym if asym > 0 else math.inf
            print(f"{x:>12g} {kb:>16.9e} {asym:>16.9e} {ratio:>10.4f}")
        else:
            print(f"{x:>12g} {kb:>16.9e} {'-':>16} {'-':>10}")
    return EXIT_PASS


# Config keys must be whole flag names, and --config the name main looks for.
_CONFIG = ("--config", {"help": "flat key=value file whose keys are these flags; "
                                "explicit flags win"})
_SEED = ("--seed", {"type": int, "default": montecarlo.DEFAULT_MASTER_SEED})
_REPORT = ("--out", {"help": "write the JSON report here"})

# name -> (handler, add_parser options, [(flag, add_argument options)]), in help order
SUBCOMMANDS = {
    "partition": (cmd_partition, {"help": "inspect the orbit partition for (k, n)"}, [
        ("--k", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--json", {"action": "store_true"})]),
    "spectrum": (cmd_spectrum, {"help": "eigenvalue point cloud of the scaled matrix"}, [
        ("--k", {"type": int}),
        ("--n", {"type": int}),
        ("--law", {"choices": [*INPUT_LAWS, *LAW_ALIASES, "delta"]}),
        _SEED,
        ("--trials", {"type": int,
                      "help": "number of realizations appended to the cloud (default 1)"}),
        ("--preset", {"choices": sorted(FIGURE_PRESETS),
                      "help": "named scatter preset (sets k/n/law/trials)"}),
        ("--out", {"default": "-", "help": "output path, - for stdout"}),
        ("--format", {"choices": ["csv", "svg"], "default": "csv"})]),
    "lsd": (cmd_lsd, {"allow_abbrev": False,
                      "help": "limit-law experiment (2 = degenerate circle, "
                              "3 = roots-of-unity product, 4 = uniform-circle product)"}, [
        _CONFIG,
        ("--theorem", {"type": int, "choices": sorted(_LSD_KINDS), "required": True}),
        ("--k", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--g", {"type": int, "help": "product exponent (inferred when omitted)"}),
        ("--law", {"default": "gaussian"}),
        ("--trials", {"type": int, "default": 5}),
        _SEED, _REPORT,
        *[(flag, {"type": _finite_float}) for flag in _tolerance_flags("lsd")]]),
    "gumbel": (cmd_gumbel, {"allow_abbrev": False,
                            "help": "spectral-radius experiment on n = k^2 + 1"}, [
        _CONFIG,
        ("--kk", {"type": int, "required": True, "help": "k; n is fixed to k^2 + 1"}),
        ("--law", {"default": "gaussian"}),
        ("--trials", {"type": int, "default": 1000}),
        _SEED, _REPORT,
        ("--csv", {"help": "write per-trial radii (trial,seed,sp,standardized)"}),
        *[(flag, {"type": _finite_float}) for flag in _tolerance_flags("gumbel")]]),
    "verify": (cmd_verify, {"help": "formula vs dense eigensolver sweep"}, [
        ("--nmax", {"type": int, "default": 40}),
        ("--samples", {"type": int, "default": 5}),
        _SEED,
        ("--fuzz", {"type": _finite_float, "default": 0.0,
                    "help": "perturb the formula side to exercise the failure path"}),
        _REPORT]),
    "tail": (cmd_tail, {"help": "table of P(E1*E2 > x) vs its asymptotic"}, [
        ("--x", {"type": _x_values, "action": "append", "required": True,
                 "help": "comma- or space-separated x values; repeatable"})]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The kcirc parser with every subcommand, or with command's alone; the latter
    names them all in its usage line, so its text is the full parser's byte for byte."""
    fmt = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="kcirc", formatter_class=fmt,
        description="Exact k-circulant spectra, their limit laws, and "
                    "spectral-radius extreme-value experiments.")
    names = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (func, options, flags) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, formatter_class=fmt, **options)
            for flag, flag_options in flags:
                p.add_argument(flag, **flag_options)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    try:
        if command and _CONFIG in SUBCOMMANDS[command][2]:
            scan = argparse.ArgumentParser(prog="kcirc", add_help=False, allow_abbrev=False)
            scan.add_argument("--config", nargs="?")  # a missing value is the subparser's error
            config = scan.parse_known_args(argv)[0].config
            if config:  # file values go ahead of the flags, so explicit flags win
                argv = argv[:1] + _config_tokens(config) + argv[1:]
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except montecarlo.HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())
