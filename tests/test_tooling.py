"""The test run's own configuration."""

pytest_plugins = ["pytester"]


def test_a_failing_property_reports_its_falsifying_example(pytestconfig, pytester):
    # With the run's warning filters, a failing @given test used to end the
    # whole run in an INTERNALERROR raised while hypothesis built its report.
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)
