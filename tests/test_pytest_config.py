"""The suite's own pytest configuration: a falsified property test is
reported as an ordinary failure, and the tests after it still run."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_reports(pytester):
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    filters = config["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
