"""scripts/record_fixtures.py still runs and still reproduces tests/fixtures/.

The script is the only caller of several library signatures outside the
test suite, so a signature change that breaks it shows up here.  Numbers
are compared at 1e-12 relative, not byte for byte: the Riesz residuals are
float sums whose last digit depends on the BLAS build.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def assert_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize(
    "fixture, name",
    [
        ("opnorm_fixture", "opnorm_oracle.json"),
        ("paraproduct_fixture", "paraproduct_ratio.json"),
        ("riesz_fixture", "riesz_residual.json"),
    ],
)
def test_record_fixtures_reproduces_committed_files(
    tmp_path, record_fixtures, fixture, name
):
    record_fixtures.OUT = tmp_path
    getattr(record_fixtures, fixture)()
    got = json.loads((tmp_path / name).read_text())
    assert_close(got, json.loads((FIXTURES / name).read_text()))
