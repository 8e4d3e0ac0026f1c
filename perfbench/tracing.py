"""Span recorder for the traced run and the per-layer metrics derived from it.

The recorder wraps the library's public functions from the outside: each
target is replaced in every kcirculant module namespace that binds it, and
two methods are replaced on their classes. A span holds name, start, end,
parent, thread id and thread CPU time. Spans stay in memory until the run
writes them out, and every replaced attribute is restored on exit.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _arg0(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _n_prime(args, kwargs, result):
    return _arg0(args, kwargs).n_prime


def _length(args, kwargs, result):
    return len(_arg0(args, kwargs))


def _cube(args, kwargs, result):
    return len(_arg0(args, kwargs)) ** 3


def _law_g(args, kwargs, result):
    return _arg0(args, kwargs).g


def _spectra_done(args, kwargs, result):
    return len(result.trials) * result.config.get("samples_per_pair", 1)


# (module, attribute, span group, value recorded on success)
FUNCTION_TARGETS = [
    ("numtheory", "decompose", "numtheory", None),
    ("numtheory", "eigen_partition", "numtheory", _n_prime),
    ("numtheory", "upsilon", "numtheory", _n_prime),
    ("numtheory", "classify_regime", "numtheory", None),
    ("numtheory", "multiplicative_order", "numtheory", None),
    ("numtheory", "lower_order_count_ie", "numtheory", None),
    ("spectral", "formula_spectrum", "spectral.formula_spectrum", None),
    ("spectral", "dft", "spectral.dft", _length),
    ("spectral", "build_matrix", "spectral.oracle", None),
    ("spectral", "dense_spectrum_oracle", "spectral.oracle", _cube),
    ("spectral", "spectra_match", "spectral.match", None),
    ("scipy.optimize", "linear_sum_assignment", "spectral.assignment", None),
    ("limits", "ks_radial", "limits.ks_radial", None),
    ("limits", "lsd_radial_cdf", "limits.radial_cdf", _law_g),
    ("limits", "esd", "limits.other", None),
    ("limits", "angular_test", "limits.other", None),
    ("limits", "band_mass", "limits.other", None),
    ("limits", "ks_one_sample", "limits.other", None),
    ("limits", "ks_two_sample", "limits.other", None),
    ("extremes", "spectral_radius", "extremes", None),
    ("extremes", "iid_max_reference", "extremes", None),
    ("extremes", "normalization", "extremes", None),
    ("montecarlo", "run_lsd_experiment", "montecarlo.runner", _spectra_done),
    ("montecarlo", "run_gumbel_experiment", "montecarlo.runner", _spectra_done),
    ("montecarlo", "oracle_sweep", "montecarlo.runner", _spectra_done),
    ("montecarlo", "hypothesis_check", "montecarlo.hypothesis", None),
    ("cli", "_write_text", "cli.write", None),
    ("extremes", "export_radii_csv", "cli.write", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span group)
METHOD_TARGETS = [
    ("montecarlo", "InputLaw", "sample", "montecarlo.sample"),
    ("montecarlo", "ExperimentReport", "to_json", "montecarlo.to_json"),
]

# span fields
SID, PARENT, NAME, GROUP, TID, T0, T1, C0, C1, EXC, VALUE = range(11)


class Tracer:
    """Context manager that records spans around the library's public functions."""

    package = "kcirculant"

    def __init__(self):
        self.spans: list[tuple] = []
        self.unbound: list[str] = []   # targets the library no longer has
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._restore: list[tuple] = []

    def _module(self, name: str):
        return sys.modules.get(name if "." in name else f"{self.package}.{name}")

    def _wrap(self, fn, name: str, group: str, value_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            parent = stack[-1] if stack else tracer._main_parent(tid)
            sid = next(tracer._ids)
            stack.append(sid)
            exc_name, value = None, None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value_fn is not None:
                    value = value_fn(args, kwargs, result)
                return result
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                tracer.spans.append((sid, parent, name, group, tid, t0, t1, c0, c1,
                                     exc_name, value))

        return traced

    def _main_parent(self, tid: int) -> int:
        """A worker thread's outermost span hangs off the main thread's open span."""
        if tid == self._main:
            return 0
        try:
            return self._stacks.get(self._main, [0])[-1]
        except IndexError:
            return 0

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == self.package or key.startswith(self.package + ".")]
        for mod_name, attr, group, value_fn in FUNCTION_TARGETS:
            owner = self._module(mod_name)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.unbound.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, attr, group, value_fn)
            bound = False
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound = True
            if not bound:
                self.unbound.append(f"{mod_name}.{attr}")
        for mod_name, cls_name, attr, group in METHOD_TARGETS:
            cls = getattr(self._module(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.unbound.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{cls_name}.{attr}", group, None))
        return self

    def __exit__(self, *exc_info):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks a layer never exercised."""
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    by_group = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
        by_group[s[GROUP]].append(s)

    def outermost(group):
        out = []
        for s in by_group[group]:
            p = by_id.get(s[PARENT])
            while p is not None and p[GROUP] != group:
                p = by_id.get(p[PARENT])
            if p is None:
                out.append(s)
        return out

    def wall(group):
        top = outermost(group)
        return sum(s[T1] - s[T0] for s in top) if top else None

    def cpu(group):
        top = outermost(group)
        return sum(s[C1] - s[C0] for s in top) if top else None

    def count(group):
        return len(by_group[group]) or None

    def total(names):
        vals = [s[VALUE] for s in spans if s[NAME] in names]
        return sum(vals) if vals else None

    def self_time(s):
        kids = [(max(c[T0], s[T0]), min(c[T1], s[T1])) for c in children[s[SID]]]
        return (s[T1] - s[T0]) - _union_length(kids)

    def cdf_stats(g):
        durs = [s[T1] - s[T0] for s in by_group["limits.radial_cdf"] if s[VALUE] == g]
        return (len(durs), 1e3 * sum(durs) / len(durs)) if durs else (None, None)

    runners = by_group["montecarlo.runner"]
    mains = by_group["cli.main"]
    wait = workers = None
    if runners:
        wait, workers = 0.0, 0
        for r in runners:
            wait += (r[T1] - r[T0]) - (r[C1] - r[C0])
            threads = set()
            for c in children[r[SID]]:
                if c[TID] != r[TID]:
                    wait += (c[T1] - c[T0]) - (c[C1] - c[C0])
                    threads.add(c[TID])
            workers = max(workers, len(threads) or 1)
    cdf2, cdf3 = cdf_stats(2), cdf_stats(3)
    walks = [s for s in by_group["numtheory"] if s[NAME] in ("eigen_partition", "upsilon")]
    cdf_spans = by_group["limits.radial_cdf"]
    return {
        "numtheory.wall_s": wall("numtheory"),
        "numtheory.cpu_s": cpu("numtheory"),
        "numtheory.orbit_walks": len(walks) if walks else None,
        "numtheory.elements_walked": sum(s[VALUE] for s in walks) if walks else None,
        "spectral.formula_spectrum.wall_s": wall("spectral.formula_spectrum"),
        "spectral.formula_spectrum.cpu_s": cpu("spectral.formula_spectrum"),
        "spectral.formula_spectrum.calls": count("spectral.formula_spectrum"),
        "spectral.dft.wall_s": wall("spectral.dft"),
        "spectral.fft_points": total({"dft"}),
        "spectral.oracle.wall_s": wall("spectral.oracle"),
        "spectral.oracle_n3": total({"dense_spectrum_oracle"}),
        "spectral.match.wall_s": wall("spectral.match"),
        "spectral.match_calls": count("spectral.match"),
        "spectral.assignment_calls": count("spectral.assignment"),
        "limits.ks_radial.wall_s": wall("limits.ks_radial"),
        "limits.ks_radial.cpu_s": cpu("limits.ks_radial"),
        "limits.radial_cdf_evals.g2": cdf2[0],
        "limits.radial_cdf_evals.g3": cdf3[0],
        "limits.radial_cdf_ms.g2": cdf2[1],
        "limits.radial_cdf_ms.g3": cdf3[1],
        "limits.quadrature_errors": (sum(1 for s in cdf_spans if s[EXC] == "QuadratureError")
                                     if cdf_spans else None),
        "limits.other.wall_s": wall("limits.other"),
        "extremes.wall_s": wall("extremes"),
        "montecarlo.trials": sum(r[VALUE] or 0 for r in runners) if runners else None,
        "montecarlo.sample.wall_s": wall("montecarlo.sample"),
        "montecarlo.self_s": sum(self_time(r) for r in runners) if runners else None,
        "montecarlo.wait_s": wait,
        "montecarlo.workers": workers,
        "montecarlo.hypothesis.wall_s": wall("montecarlo.hypothesis"),
        "montecarlo.to_json.wall_s": wall("montecarlo.to_json"),
        "cli.write.wall_s": wall("cli.write"),
        "cli.self_s": sum(self_time(m) for m in mains) if mains else None,
    }


# counts that must repeat exactly between two traced runs of the same code
EXACT_COUNTS = (
    "numtheory.orbit_walks",
    "numtheory.elements_walked",
    "spectral.fft_points",
    "limits.radial_cdf_evals.g2",
    "limits.radial_cdf_evals.g3",
    "spectral.assignment_calls",
    "montecarlo.trials",
)
