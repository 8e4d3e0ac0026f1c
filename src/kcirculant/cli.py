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
from .numtheory import decompose, eigen_partition
from .seeding import derive_trial_seed

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_text(path: str, data: str) -> None:
    if path == "-":
        sys.stdout.write(data)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)


def _load_flat_config(path: str) -> dict:
    """Read a flat key=value file whose keys mirror the CLI flags."""
    out = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _fill_from_config(args, types: dict, fallbacks: dict) -> None:
    """Overlay config-file values under explicit flags, then apply defaults.

    Flags parsed as None were not given on the command line; they take the
    config-file value when present, else the fallback default.
    """
    values = _load_flat_config(args.config) if args.config else {}
    unknown = set(values) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, cast in types.items():
        if getattr(args, name) is None:
            if name in values:
                setattr(args, name, cast(values[name]))
            elif name in fallbacks:
                setattr(args, name, fallbacks[name])


def cmd_partition(args) -> int:
    params = decompose(args.n, args.k)
    part = eigen_partition(params)
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
    n = args.n
    scale = 1.0 / math.sqrt(n)
    clouds = []
    for t in range(args.trials):
        a = _draw_input(args.law, derive_trial_seed(args.seed, t), n)
        clouds.append(spectral.formula_spectrum(a, args.k, n))
    try:
        if args.format == "svg":
            pts = np.concatenate([c.eigenvalues for c in clouds]) * scale
            data = _render_svg(pts, f"k={args.k} n={n} law={args.law} "
                                    f"trials={args.trials}")
            _write_text(args.out, data)
        else:
            if args.out == "-":
                for i, cloud in enumerate(clouds):
                    spectral.export_spectrum_csv(cloud, sys.stdout, scale=scale,
                                                 append=i > 0)
            else:
                with open(args.out, "w", encoding="ascii") as fh:
                    for i, cloud in enumerate(clouds):
                        spectral.export_spectrum_csv(cloud, fh, scale=scale,
                                                     append=i > 0)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_PASS


def _finish_experiment(report, out_path) -> int:
    if out_path:
        try:
            _write_text(out_path, report.to_json())
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    verdict = "PASS" if report.passed else "FAIL"
    agg = " ".join(f"{key}={val:.6g}" for key, val in sorted(report.aggregates.items())
                   if isinstance(val, (int, float)) and not isinstance(val, bool))
    print(f"{verdict} {agg} wall={report.wall_clock_seconds:.2f}s")
    return EXIT_PASS if report.passed else EXIT_STAT_FAIL


_LSD_OPTION_TYPES = {
    "theorem": int, "k": int, "n": int, "g": int, "law": str, "trials": int,
    "seed": int, "out": str, "tol_radial": float, "tol_angular": float,
    "tol_band": float, "radius": float, "epsilon": float,
}


def cmd_lsd(args) -> int:
    _fill_from_config(args, _LSD_OPTION_TYPES,
                      {"law": "gaussian", "trials": 5,
                       "seed": montecarlo.DEFAULT_MASTER_SEED})
    if args.theorem not in (2, 3, 4):
        raise ValueError("lsd needs --theorem 2, 3 or 4 (flag or config file)")
    if args.k is None or args.n is None:
        raise ValueError("lsd needs --k and --n (flags or config file)")
    kind = {2: montecarlo.KIND_LSD2, 3: montecarlo.KIND_LSD3,
            4: montecarlo.KIND_LSD4}[args.theorem]
    overrides = {}
    if args.tol_radial is not None:
        overrides["radial_ks_mean"] = args.tol_radial
    if args.tol_angular is not None:
        if kind == montecarlo.KIND_LSD3:
            overrides["angular_grid_dev"] = args.tol_angular
        else:
            overrides["angular_ks_mean"] = args.tol_angular
    if args.tol_band is not None:
        overrides["band_mass_min"] = args.tol_band
    if args.radius is not None:
        overrides["radius"] = args.radius
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    config = montecarlo.ExperimentConfig(kind=kind, k=args.k, n=args.n, g=args.g,
                                         law=args.law, trials=args.trials,
                                         master_seed=args.seed,
                                         tolerances=overrides)
    report = montecarlo.run_lsd_experiment(config)
    return _finish_experiment(report, args.out)


_GUMBEL_OPTION_TYPES = {
    "kk": int, "law": str, "trials": int, "seed": int, "out": str, "csv": str,
    "tol_gumbel": float, "tol_reference": float,
}


def cmd_gumbel(args) -> int:
    _fill_from_config(args, _GUMBEL_OPTION_TYPES,
                      {"law": "gaussian", "trials": 1000,
                       "seed": montecarlo.DEFAULT_MASTER_SEED})
    if args.kk is None:
        raise ValueError("gumbel needs --kk (flag or config file)")
    k = args.kk
    n = k * k + 1
    overrides = {}
    if args.tol_gumbel is not None:
        overrides["ks_gumbel"] = args.tol_gumbel
    if args.tol_reference is not None:
        overrides["ks_reference"] = args.tol_reference
    config = montecarlo.ExperimentConfig(kind=montecarlo.KIND_GUMBEL, k=k, n=n,
                                         law=args.law, trials=args.trials,
                                         master_seed=args.seed,
                                         tolerances=overrides)
    report = montecarlo.run_gumbel_experiment(config)
    if args.csv:
        try:
            extremes.export_radii_csv(report.trials, args.csv)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return _finish_experiment(report, args.out)


def cmd_verify(args) -> int:
    report = montecarlo.oracle_sweep(args.nmax, args.samples, args.seed,
                                     fuzz=args.fuzz)
    if args.out:
        try:
            _write_text(args.out, report.to_json())
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
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

    p = sub.add_parser("lsd", help="limit-law experiment "
                                   "(2 = degenerate circle, 3 = roots-of-unity "
                                   "product, 4 = uniform-circle product)")
    p.add_argument("--config", help="flat key=value file mirroring these flags; "
                                    "explicit flags win")
    p.add_argument("--theorem", type=int, choices=[2, 3, 4])
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int, help="product exponent (inferred when omitted)")
    p.add_argument("--law")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--tol-radial", type=float, dest="tol_radial")
    p.add_argument("--tol-angular", type=float, dest="tol_angular")
    p.add_argument("--tol-band", type=float, dest="tol_band")
    p.add_argument("--radius", type=float)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_lsd)

    p = sub.add_parser("gumbel", help="spectral-radius experiment on n = k^2 + 1")
    p.add_argument("--config", help="flat key=value file mirroring these flags; "
                                    "explicit flags win")
    p.add_argument("--kk", type=int, help="k; n is fixed to k^2 + 1")
    p.add_argument("--law")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write per-trial radii (trial,seed,sp,standardized)")
    p.add_argument("--tol-gumbel", type=float, dest="tol_gumbel")
    p.add_argument("--tol-reference", type=float, dest="tol_reference")
    p.set_defaults(func=cmd_gumbel)

    p = sub.add_parser("verify", help="formula vs dense eigensolver sweep")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=montecarlo.DEFAULT_MASTER_SEED)
    p.add_argument("--fuzz", type=float, default=0.0,
                   help="perturb the formula side to exercise the failure path")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tail", help="table of P(E1*E2 > x) vs its asymptotic")
    p.add_argument("--x", action="append", required=True,
                   help="comma- or space-separated x values; repeatable")
    p.set_defaults(func=cmd_tail)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
