"""The suite's own warning settings leave a failing property readable.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
``@given`` test fails, Hypothesis writes a patch of the failing example,
which imports ``libcst``, whose import warns through
``mypy_extensions.TypedDict``: unfiltered, that warning became an error
inside the plugin and ended the run in ``INTERNALERROR`` with no failure
report.  A pytest run under the repository's filters must report a failing
property as one failed test.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_a_failing_property_is_reported_not_an_internal_error(pytester):
    with PYPROJECT.open("rb") as f:
        filters = tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(f"[tool.pytest.ini_options]\nfilterwarnings = {filters!r}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "INTERNALERROR" not in result.stdout.str()
