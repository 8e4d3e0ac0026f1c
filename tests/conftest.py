import sys
from pathlib import Path

import numpy as np

# make helpers.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

DIGESTS_NUMPY = "2.4.6"  # the numpy that TestReportDigests' sha256 values were recorded with


def pytest_report_header(config):
    return (f"numpy {np.__version__} (TestReportDigests recorded with numpy {DIGESTS_NUMPY}; "
            f"other versions are unverified)")
