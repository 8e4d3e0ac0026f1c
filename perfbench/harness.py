"""Runs benchmark operations in this process against the checkout's library.

The library is imported from the checkout's src/ directory and nowhere else.
Each operation starts with empty library caches, as a `kcirc` user's command
does. Only the library call is timed; reading and checking outputs is not.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import check_command, check_spectrum, summarize_command
from workloads import SpectrumOp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import kcirculant.cli
print(time.perf_counter() - t0)
print(kcirculant.cli.__file__)
"""
IMPORT_PROFILE_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import kcirculant.cli"


class SetupError(RuntimeError):
    """The checkout does not hold a library this benchmark can run."""


def import_library():
    """Import kcirculant from the checkout; refuse any other copy."""
    if not (SRC / "kcirculant" / "__init__.py").is_file():
        raise SetupError(f"no library at {SRC / 'kcirculant'}")
    sys.path.insert(0, str(SRC))
    import kcirculant
    from kcirculant import cli, montecarlo, spectral
    if Path(kcirculant.__file__).resolve().parent != SRC / "kcirculant":
        raise SetupError(f"kcirculant imported from {kcirculant.__file__}, not {SRC}")
    return cli, montecarlo, spectral


def _fresh_python(args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=False)


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import kcirculant.cli, each time in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = _fresh_python(["-c", SETUP_CODE, str(SRC)])
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or \
                Path(lines[1]).resolve().parent != SRC / "kcirculant":
            raise SetupError(f"fresh import failed: {proc.stderr.strip()[-500:]}")
        times.append(float(lines[0]))
    return times


def import_profile() -> dict[str, float]:
    """Self import time per top-level package from `python -X importtime`."""
    proc = _fresh_python(["-X", "importtime", "-c", IMPORT_PROFILE_CODE, str(SRC)])
    if proc.returncode != 0:
        raise SetupError(f"import profile failed: {proc.stderr.strip()[-500:]}")
    totals = {"scipy": 0.0, "numpy": 0.0, "kcirculant": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = float(parts[0].rsplit(":", 1)[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us * 1e-6
    return totals


@dataclass
class Outcome:
    wall: float
    cpu: float
    errors: list = field(default_factory=list)
    digest: str = ""
    summary: dict | None = None   # recorded fields of a command's output


class PoolProbe:
    """Records the largest trial pool the library creates while installed."""

    def __init__(self, montecarlo):
        self.montecarlo = montecarlo
        self.base = getattr(montecarlo, "ThreadPoolExecutor", None)
        self.max_workers = 0

    def __enter__(self):
        if self.base is not None:
            probe = self

            class RecordingPool(self.base):
                def __init__(self, max_workers=None, *args, **kwargs):
                    probe.max_workers = max(probe.max_workers, max_workers or 0)
                    super().__init__(max_workers, *args, **kwargs)

            self.montecarlo.ThreadPoolExecutor = RecordingPool
        return self

    def __exit__(self, *exc_info):
        if self.base is not None:
            self.montecarlo.ThreadPoolExecutor = self.base
        return False

    @property
    def pool_size(self) -> int:
        """Workers of the largest pool; 1 when trials ran without a pool."""
        return self.max_workers or 1


class Runner:
    def __init__(self, cli, spectral, reference: dict | None, scratch: Path):
        self.cli = cli
        self.spectral = spectral
        self.reference = reference
        self.scratch = scratch
        self.cache_hits = 0
        self.cache_misses = 0
        self._caches = [v for v in vars(spectral).values()
                        if callable(getattr(v, "cache_info", None))]

    def _clear_caches(self):
        for cache in self._caches:
            cache.cache_clear()

    def _count_cache_use(self):
        for cache in self._caches:
            info = cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses

    def run_cli(self, argv: list[str]):
        """cli.main(argv) with captured streams: (exit code, stdout, crash text)."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash is a failed operation, not a benchmark failure
            code, crash = None, traceback.format_exc(limit=3)
        return code, out.getvalue(), crash

    def execute(self, op) -> Outcome:
        if isinstance(op, SpectrumOp):
            return self._execute_spectrum(op)
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        argv = op.full_argv(str(self.scratch))
        self._clear_caches()
        t0, c0 = time.perf_counter(), time.process_time()
        code, stdout, crash = self.run_cli(argv)
        outcome = Outcome(time.perf_counter() - t0, time.process_time() - c0)
        self._count_cache_use()
        if crash:
            outcome.errors = [crash]
            return outcome
        outputs = {name: (self.scratch / name).read_text(encoding="ascii")
                   for name in ("report.json", "radii.csv") if (self.scratch / name).is_file()}
        if op.stdout_json:
            outputs["stdout"] = stdout
        outcome.digest = _digest(repr(code), *(outputs[k] for k in sorted(outputs)))
        if self.reference is None:  # recording
            outcome.summary = summarize_command(code, outputs)
        else:
            outcome.errors = check_command(code, outputs, self.reference.get(op.ref_key))
        return outcome

    def _execute_spectrum(self, op: SpectrumOp) -> Outcome:
        a = np.random.default_rng(list(op.input_seed)).standard_normal(op.n)
        self._clear_caches()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = self.spectral.formula_spectrum(a, op.k, op.n)
        except Exception:
            return Outcome(time.perf_counter() - t0, time.process_time() - c0,
                           errors=[traceback.format_exc(limit=3)])
        outcome = Outcome(time.perf_counter() - t0, time.process_time() - c0)
        self._count_cache_use()
        ref = (self.reference or {}).get(op.ref_key)
        if ref is None:
            outcome.errors = ["no recorded partition"]
        else:
            outcome.errors = check_spectrum(result.eigenvalues, a, op.k, ref["stdout_json"])
        outcome.digest = _digest(np.ascontiguousarray(result.eigenvalues).tobytes())
        return outcome


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def load_reference() -> dict:
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, encoding="ascii") as fh:
        return json.load(fh)["commands"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None
