"""Output checks: recorded references for commands, invariants for spectra.

Floats compare within FLOAT_ABS_TOL, so a last-bit change (a 2-D FFT, a new
radial CDF) passes and a wrong answer fails. Integers, booleans and strings
(exact fractions serialize as "p/q") compare exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

FLOAT_ABS_TOL = 1e-9
SPECTRUM_REL_TOL = 1e-9


def compare(got, want, path: str = "") -> list[str]:
    """Differences between two JSON values, one message per mismatch."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{path}: {got} != {want}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return []
        if got == want or abs(got - want) <= FLOAT_ABS_TOL:
            return []
        return [f"{path}: {got!r} differs from {want!r} by more than {FLOAT_ABS_TOL}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [msg for key in sorted(want)
                for msg in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [msg for i, (g, w) in enumerate(zip(got, want))
                for msg in compare(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def summarize_command(exit_code, outputs: dict) -> dict:
    """The recorded part of a command's result: exit code plus the checked fields."""
    summary = {"exit": exit_code}
    if "report.json" in outputs:
        report = json.loads(outputs["report.json"])
        for key in ("pass", "hypothesis", "aggregates"):
            summary[key] = report[key]
    if "stdout" in outputs:
        summary["stdout_json"] = json.loads(outputs["stdout"])
    return summary


def check_command(exit_code, outputs: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return ["no recorded reference"]
    if exit_code != reference["exit"]:
        return [f"exit code {exit_code} != recorded {reference['exit']}"]
    try:
        summary = summarize_command(exit_code, outputs)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    errors = compare(summary, reference)
    if "radii.csv" in outputs and not errors:
        errors += _check_radii_csv(outputs["radii.csv"], outputs["report.json"])
    return errors


def _check_radii_csv(text: str, report_text: str) -> list[str]:
    """The radii CSV must list the report's trials, field for field."""
    rows = list(csv.DictReader(io.StringIO(text)))
    trials = json.loads(report_text)["trials"]
    if len(rows) != len(trials):
        return [f"radii.csv has {len(rows)} rows for {len(trials)} trials"]
    for row, trial in zip(rows, trials):
        if (int(row["trial"]) != trial["trial"] or int(row["seed"]) != trial["seed"]
                or float(row["sp"]) != trial["sp"]
                or float(row["standardized"]) != trial["standardized"]):
            return [f"radii.csv row {row} disagrees with the report"]
    return []


def check_spectrum(eigenvalues, a: np.ndarray, k: int, partition: dict) -> list[str]:
    """Invariants of an exact spectrum with no dense oracle at this size.

    n eigenvalues; exactly n - n' of them are 0 (n' taken from the recorded
    partition); the multiset is closed under conjugation for real input; and
    the eigenvalue sum equals trace(A) = sum_j a[j(1-k) mod n].
    """
    eig = np.asarray(eigenvalues, dtype=complex)
    n = a.size
    if eig.size != n:
        return [f"{eig.size} eigenvalues for n = {n}"]
    if not np.all(np.isfinite(eig)):
        return ["non-finite eigenvalues"]
    errors = []
    zeros = int(np.count_nonzero(eig == 0))
    if zeros != n - partition["n_prime"]:
        errors.append(f"{zeros} zero eigenvalues, expected {n - partition['n_prime']}")
    tol = SPECTRUM_REL_TOL * max(1.0, float(np.abs(eig).max()))
    gap = _conjugation_gap(eig, tol)
    if gap > tol:
        errors.append(f"not closed under conjugation (gap {gap:.3e})")
    trace = float(a[(np.arange(n) * (1 - k)) % n].sum())
    total = complex(eig.sum())
    if abs(total - trace) > SPECTRUM_REL_TOL * float(np.abs(eig).sum()):
        errors.append(f"eigenvalue sum {total} != trace {trace}")
    return errors


def _conjugation_gap(eig: np.ndarray, tol: float) -> float:
    """Largest distance from a conjugate to the nearest eigenvalue.

    Upper and conjugated lower half-plane points are compared in sorted
    order, real parts rounded to the tolerance; when rounding splits a
    near-tie and breaks that order, a nearest-neighbour search decides. Points within tol of the real axis are their
    own conjugates.
    """
    upper = _sorted(eig[eig.imag > tol], tol)
    lower = _sorted(np.conj(eig[eig.imag < -tol]), tol)
    if upper.size == lower.size and (upper.size == 0 or np.abs(upper - lower).max() <= tol):
        return 0.0
    from scipy.spatial import cKDTree
    nonzero = eig[eig != 0]  # a huge cluster of exact zeros would stall the tree
    dist, _ = cKDTree(np.column_stack([nonzero.real, nonzero.imag])).query(
        np.column_stack([nonzero.real, -nonzero.imag]))
    return float(dist.max())


def _sorted(z: np.ndarray, tol: float) -> np.ndarray:
    return z[np.lexsort((z.imag, np.round(z.real / tol)))]
