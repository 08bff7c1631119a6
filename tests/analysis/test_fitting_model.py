"""Unit and property tests for fitting and the §3.2 downtime model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.downtime_model import DowntimeModel, paper_model
from repro.analysis.fitting import LinearFit, fit_constant, fit_line
from repro.errors import AnalysisError


class TestFitLine:
    def test_exact_line_recovered(self):
        fit = fit_line([1, 2, 3, 4], [5, 7, 9, 11])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_fit_r_squared_below_one(self):
        fit = fit_line([1, 2, 3, 4, 5], [2.1, 3.9, 6.2, 7.8, 10.1])
        assert 0.98 < fit.r_squared < 1.0

    def test_constant_data(self):
        fit = fit_line([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            fit_line([1], [2])
        with pytest.raises(AnalysisError):
            fit_line([1, 2], [1, 2, 3])
        with pytest.raises(AnalysisError):
            fit_line([2, 2, 2], [1, 2, 3])

    def test_predict_and_call(self):
        fit = LinearFit(2.0, 1.0, 1.0)
        assert fit.predict(3) == 7.0
        assert fit(3) == 7.0

    def test_formatted_like_paper(self):
        assert LinearFit(-0.55, 43.0, 1.0).formatted() == "-0.55n + 43"
        assert LinearFit(0.43, -0.07, 1.0).formatted() == "0.43n - 0.07"

    def test_fit_constant(self):
        assert fit_constant([46, 47, 48]) == pytest.approx(47.0)
        with pytest.raises(AnalysisError):
            fit_constant([])


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(min_value=-50, max_value=50),
    intercept=st.floats(min_value=-100, max_value=100),
)
def test_fit_recovers_arbitrary_lines(slope, intercept):
    """Property: OLS on exact linear data returns the generating line."""
    xs = [0.0, 1.5, 3.0, 7.0, 11.0]
    ys = [slope * x + intercept for x in xs]
    fit = fit_line(xs, ys)
    assert fit.slope == pytest.approx(slope, abs=1e-6)
    assert fit.intercept == pytest.approx(intercept, abs=1e-6)


class TestDowntimeModel:
    def test_paper_coefficients(self):
        """§5.6: r(n) = 3.9n + 60 - 17α."""
        slope, constant, alpha_coefficient = paper_model().r_coefficients()
        assert slope == pytest.approx(3.9, abs=0.05)
        assert constant == pytest.approx(60, abs=0.2)
        assert alpha_coefficient == pytest.approx(-17, abs=0.3)

    def test_r_matches_coefficients(self):
        model = paper_model()
        slope, constant, ac = model.r_coefficients()
        for n in (1, 5, 11):
            for alpha in (0.25, 0.5, 1.0):
                assert model.r(n, alpha) == pytest.approx(
                    slope * n + constant + ac * alpha
                )

    def test_d_warm_at_11(self):
        # reboot_vmm(11) + resume(11) = 36.95 + 4.66 ~= 41.6.
        assert paper_model().d_warm(11) == pytest.approx(41.6, abs=0.2)

    def test_d_cold_at_11(self):
        # 47 + 43 + (3.8*11+13) - 16.8*0.5 ~= 136.4.
        assert paper_model().d_cold(11, alpha=0.5) == pytest.approx(136.4, abs=0.3)

    def test_always_positive(self):
        """The paper's conclusion: r(n) > 0 for every α <= 1."""
        assert paper_model().always_positive()

    def test_validation(self):
        model = paper_model()
        with pytest.raises(AnalysisError):
            model.d_warm(-1)
        with pytest.raises(AnalysisError):
            model.d_cold(1, alpha=0)
        with pytest.raises(AnalysisError):
            DowntimeModel(
                model.reboot_vmm, model.resume, model.reboot_os, reset_hw=-1
            )
