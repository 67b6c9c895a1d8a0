"""The suite's warning filters let every failing test report as a failure."""

pytest_plugins = ["pytester"]


def test_a_failing_hypothesis_test_reports_as_a_failure(pytester, pytestconfig):
    # every warning is an error, and hypothesis's report hook meets a DeprecationWarning on a failure: unfiltered,
    # the run ends in INTERNALERROR at the first failing @given test and reports nothing after it
    filters = pytestconfig.getini("filterwarnings")  # the list in pyproject.toml
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_given_fails(x):
            assert False

        def test_plain_fails():
            assert False
        """
    )
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=2)
