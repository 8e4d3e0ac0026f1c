"""Command-line front end.

Subcommands: partition (orbit inspection), spectrum (eigenvalue point clouds
as CSV or SVG), lsd / gumbel (limit-law and spectral-radius experiments with
JSON reports), verify (formula-vs-dense sweep), tail (tail-probability table).

Exit codes: 0 pass, 1 statistical failure, 2 usage or hypothesis error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import extremes, montecarlo, spectral
from ._textio import write_text
from .numtheory import ORBIT_CAP, structure
from .seeding import derive_trial_seed

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_text(path: str, data: str) -> None:
    """Write data to the file at path, or to stdout for "-"."""
    write_text(sys.stdout if path == "-" else path, data)


def _finite_float(text: str) -> float:
    """argparse type of the tolerance and fuzz flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
    params, part, _ = structure(args.n, args.k)
    ups = part.upsilon
    values, counts = np.unique(part.sizes, return_counts=True)
    hist = dict(zip(values.tolist(), counts.tolist()))
    self_conj = int(part.self_conjugate.sum())
    if args.json:
        import json
        payload = {
            "n": params.n, "k": params.k, "n_prime": params.n_prime,
            "k_prime": params.k_prime,
            "common_primes": [{"p": p, "alpha": a, "beta": b}
                              for p, a, b in params.common_primes],
            "zero_multiplicity": params.zero_multiplicity,
            "g1": part.g1, "blocks": part.block_count,
            "upsilon": str(ups),
            "size_histogram": {str(size): hist[size] for size in sorted(hist)},
            "self_conjugate_blocks": self_conj,
            "paired_blocks": part.block_count - self_conj,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return EXIT_PASS
    common = " ".join(f"{p}^{b}|n,{p}^{a}|k" for p, a, b in params.common_primes) or "none"
    print(f"n={params.n} k={params.k} n'={params.n_prime} k'={params.k_prime} "
          f"common_primes={common}")
    if params.zero_multiplicity:
        print(f"zero_multiplicity={params.zero_multiplicity} "
              f"(eigenvalue 0 appears n - n' times)")
    print(f"g1={part.g1} blocks={part.block_count} upsilon={ups}")
    sizes = " ".join(f"{size}x{hist[size]}" for size in sorted(hist))
    print(f"block sizes (size x count): {sizes}")
    print(f"conjugacy: {self_conj} self-conjugate, "
          f"{part.block_count - self_conj} paired")
    return EXIT_PASS


def _draw_input(law_name: str, seed: int, n: int) -> np.ndarray:
    if law_name == "delta":
        a = np.zeros(n)
        a[0] = 1.0
        return a
    law = montecarlo.input_law(law_name)
    return law.sample(np.random.default_rng(seed), n)


def _render_svg(points: np.ndarray, title: str) -> str:
    size = 640
    margin = 40
    lim = max(1.0, float(np.abs(points.real).max(initial=0.0)),
              float(np.abs(points.imag).max(initial=0.0))) * 1.05
    span = size - 2 * margin

    def sx(v: float) -> float:
        return margin + (v + lim) / (2 * lim) * span

    def sy(v: float) -> float:
        return size - margin - (v + lim) / (2 * lim) * span

    parts = [
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
        f'<text x="{margin - 4}" y="{sy(0):.2f}" font-size="10" '
        f'text-anchor="end">0</text>',
        f'<text x="{sx(lim):.2f}" y="{size - margin + 16}" font-size="10" '
        f'text-anchor="end">{lim:.2f}</text>',
    ]
    for z in points:
        parts.append(f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" '
                     f'r="1.5" fill="black" fill-opacity="0.35"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_spectrum(args) -> int:
    if args.preset:
        if args.k is not None or args.n is not None or args.law is not None \
                or args.trials is not None:
            raise ValueError("--preset conflicts with --k/--n/--law/--trials")
        preset = montecarlo.FIGURE_PRESETS[args.preset]
        args.k, args.n = preset["k"], preset["n"]
        args.law = preset["law"]
        args.trials = preset["trials"]
    if args.k is None or args.n is None:
        raise ValueError("spectrum needs --k and --n (or --preset)")
    if args.law is None:
        args.law = "gaussian"
    if args.trials is None:
        args.trials = 1
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if not 2 <= args.n <= ORBIT_CAP:
        raise ValueError(f"--n must be between 2 and the orbit enumeration cap "
                         f"{ORBIT_CAP}, got {args.n}")
    n = args.n
    scale = 1.0 / math.sqrt(n)
    out = sys.stdout if args.out == "-" else args.out
    points = []  # SVG only: each trial's scaled eigenvalues; CSV rows go out per trial
    for t in range(args.trials):
        a = _draw_input(args.law, derive_trial_seed(args.seed, t), n)
        cloud = spectral.formula_spectrum(a, args.k, n)
        if args.format == "svg":
            points.append(cloud.eigenvalues * scale)
        else:
            spectral.export_spectrum_csv(cloud, out, scale=scale, append=t > 0)
    if args.format == "svg":
        _write_text(args.out, _render_svg(np.concatenate(points),
                                          f"k={args.k} n={n} law={args.law} "
                                          f"trials={args.trials}"))
    return EXIT_PASS


def _finish_experiment(report, out_path) -> int:
    if out_path:
        _write_text(out_path, report.to_json())
    verdict = "PASS" if report.passed else "FAIL"
    agg = " ".join(f"{key}={val:.6g}" for key, val in sorted(report.aggregates.items())
                   if isinstance(val, (int, float)) and not isinstance(val, bool))
    print(f"{verdict} {agg} wall={report.wall_clock_seconds:.2f}s")
    return EXIT_PASS if report.passed else EXIT_STAT_FAIL


# Each tolerance flag and the tolerance keys it may set. An experiment takes
# the keys its kind has: --tol-angular bounds the angular KS mean at theorem 4
# and the angular grid deviation at theorem 3.
_TOLERANCE_FLAGS = {
    "tol_radial": ("radial_ks_mean",),
    "tol_angular": ("angular_ks_mean", "angular_grid_dev"),
    "tol_band": ("band_mass_min",),
    "radius": ("radius",),
    "epsilon": ("epsilon",),
    "tol_gumbel": ("ks_gumbel",),
    "tol_reference": ("ks_reference",),
}


def _experiment_config(args, kind: str, **fields) -> montecarlo.ExperimentConfig:
    """The experiment the parsed flags describe; inapplicable flags exit 2."""
    tolerances = {}
    for dest, keys in _TOLERANCE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        applicable = [key for key in keys if key in montecarlo.DEFAULT_TOLERANCES[kind]]
        if not applicable:
            raise ValueError(f"--{dest.replace('_', '-')} does not apply to {kind}")
        tolerances.update(dict.fromkeys(applicable, value))
    return montecarlo.ExperimentConfig(kind=kind, law=args.law, trials=args.trials,
                                       master_seed=args.seed, tolerances=tolerances,
                                       **fields)


def cmd_lsd(args) -> int:
    kind = {2: montecarlo.KIND_LSD2, 3: montecarlo.KIND_LSD3,
            4: montecarlo.KIND_LSD4}[args.theorem]
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
    report = montecarlo.oracle_sweep(args.nmax, args.samples, args.seed,
                                     fuzz=args.fuzz)
    if args.out:
        _write_text(args.out, report.to_json())
    agg = report.aggregates
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} pairs={agg['pairs']} samples={agg['samples_per_pair']} "
          f"max_distance={agg['max_distance']:.3e} failures={agg['failures']} "
          f"wall={report.wall_clock_seconds:.2f}s")
    for failure in agg["failure_list"][:20]:
        print(f"  mismatch at n={failure['n']} k={failure['k']} "
              f"distance={failure['max_distance']:.3e}")
    return EXIT_PASS if report.passed else EXIT_STAT_FAIL


def cmd_tail(args) -> int:
    xs = [float(v) for chunk in args.x for v in chunk.replace(",", " ").split()]
    if not xs:
        raise ValueError("tail needs at least one x value")
    for x in xs:
        if not 0.0 <= x < math.inf:
            raise ValueError(f"--x must be finite and nonnegative, got {x}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcirc",
        description="Exact k-circulant spectra, their limit laws, and "
                    "spectral-radius extreme-value experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="inspect the orbit partition for (k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("spectrum", help="eigenvalue point cloud of the scaled matrix")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--law", choices=["gaussian", "centered_exponential", "exp",
                                     "rademacher", "uniform", "delta"])
    p.add_argument("--seed", type=int, default=montecarlo.DEFAULT_MASTER_SEED)
    p.add_argument("--trials", type=int,
                   help="number of realizations appended to the cloud (default 1)")
    p.add_argument("--preset", choices=sorted(montecarlo.FIGURE_PRESETS),
                   help="named scatter preset (sets k/n/law/trials)")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_spectrum)

    # Config keys must be whole flag names, and --config the name main looks for.
    config_help = "flat key=value file whose keys are these flags; explicit flags win"
    p = sub.add_parser("lsd", allow_abbrev=False,
                       help="limit-law experiment (2 = degenerate circle, "
                            "3 = roots-of-unity product, 4 = uniform-circle product)")
    p.add_argument("--config", help=config_help)
    p.add_argument("--theorem", type=int, choices=[2, 3, 4], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, help="product exponent (inferred when omitted)")
    p.add_argument("--law", default="gaussian")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=montecarlo.DEFAULT_MASTER_SEED)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--tol-radial", type=_finite_float, dest="tol_radial")
    p.add_argument("--tol-angular", type=_finite_float, dest="tol_angular")
    p.add_argument("--tol-band", type=_finite_float, dest="tol_band")
    p.add_argument("--radius", type=_finite_float)
    p.add_argument("--epsilon", type=_finite_float)
    p.set_defaults(func=cmd_lsd)

    p = sub.add_parser("gumbel", allow_abbrev=False,
                       help="spectral-radius experiment on n = k^2 + 1")
    p.add_argument("--config", help=config_help)
    p.add_argument("--kk", type=int, required=True, help="k; n is fixed to k^2 + 1")
    p.add_argument("--law", default="gaussian")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=montecarlo.DEFAULT_MASTER_SEED)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write per-trial radii (trial,seed,sp,standardized)")
    p.add_argument("--tol-gumbel", type=_finite_float, dest="tol_gumbel")
    p.add_argument("--tol-reference", type=_finite_float, dest="tol_reference")
    p.set_defaults(func=cmd_gumbel)

    p = sub.add_parser("verify", help="formula vs dense eigensolver sweep")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=montecarlo.DEFAULT_MASTER_SEED)
    p.add_argument("--fuzz", type=_finite_float, default=0.0,
                   help="perturb the formula side to exercise the failure path")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tail", help="table of P(E1*E2 > x) vs its asymptotic")
    p.add_argument("--x", action="append", required=True,
                   help="comma- or space-separated x values; repeatable")
    p.set_defaults(func=cmd_tail)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    scan = argparse.ArgumentParser(prog="kcirc", add_help=False, allow_abbrev=False)
    scan.add_argument("--config")
    try:
        config = scan.parse_known_args(argv)[0].config
        if config:  # file values go ahead of the flags, so explicit flags win
            argv = argv[:1] + _config_tokens(config) + argv[1:]
        args = build_parser().parse_args(argv)
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
