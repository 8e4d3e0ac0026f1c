import sys
from pathlib import Path

import numpy as np

# make helpers.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

DIGESTS_NUMPY = "2.4.6"  # the numpy that TestReportDigests' sha256 values were recorded with


def pytest_report_header(config):
    try:  # the K_1, Q and log-Gamma accuracy tests compare against scipy.special
        import scipy
        scipy_version = f"scipy {scipy.__version__}"
    except ImportError:
        scipy_version = "scipy not installed"
    return (f"numpy {np.__version__} (TestReportDigests recorded with numpy {DIGESTS_NUMPY}; "
            f"other versions are unverified), {scipy_version}")
