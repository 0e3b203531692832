"""Fig. 7 pipeline model and router frequency solver."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.timing import frequency


class TestFig7Curve:
    """The published anchor points of Fig. 7 and Section 6."""

    def test_head_to_head_1_8ghz(self):
        assert frequency.pipeline_max_frequency(0.0) == pytest.approx(
            1.8, rel=1e-4
        )

    def test_0_6mm_gives_1_4ghz(self):
        assert frequency.pipeline_max_frequency(0.6) == pytest.approx(
            1.4, rel=1e-3
        )

    def test_0_9mm_gives_1_2ghz(self):
        assert frequency.pipeline_max_frequency(0.9) == pytest.approx(
            1.2, rel=1e-3
        )

    def test_1_25mm_gives_about_1ghz(self):
        """Section 6: 'We target link segments of 1.25 mm near the root of
        the tree, and hence get a 1 GHz operating speed.' Cross-validation:
        this point was NOT used in the calibration."""
        assert frequency.pipeline_max_frequency(1.25) == pytest.approx(
            1.0, rel=0.01
        )

    def test_monotone_decreasing(self):
        freqs = [frequency.pipeline_max_frequency(length)
                 for length in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        assert freqs == sorted(freqs, reverse=True)

    def test_3mm_below_half_ghz(self):
        # Fig. 7's right edge: the curve falls below ~0.5 GHz by 3 mm.
        assert frequency.pipeline_max_frequency(3.0) < 0.5

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            frequency.pipeline_max_frequency(-0.1)


class TestSegmentInversion:
    def test_optimal_segment_for_3x3_routers(self):
        """Section 6: 'the optimal pipeline segment length is ... 0.6 mm
        when using 3x3 routers' (router speed 1.4 GHz)."""
        assert frequency.max_segment_length(1.4) == pytest.approx(
            0.6, rel=1e-3
        )

    def test_optimal_segment_for_5x5_routers(self):
        """... and 0.9 mm when using 5x5 routers (1.2 GHz)."""
        assert frequency.max_segment_length(1.2) == pytest.approx(
            0.9, rel=1e-3
        )

    def test_inverse_roundtrip(self):
        for f in (0.5, 0.8, 1.0, 1.4, 1.7):
            length = frequency.max_segment_length(f)
            assert frequency.pipeline_max_frequency(length) == \
                pytest.approx(f, rel=1e-9)

    def test_too_fast_rejected(self):
        with pytest.raises(ConfigurationError):
            frequency.max_segment_length(2.0)

    @given(st.floats(min_value=0.2, max_value=1.79))
    def test_roundtrip_property(self, f):
        length = frequency.max_segment_length(f)
        assert frequency.pipeline_max_frequency(length) == \
            pytest.approx(f, rel=1e-9)


class TestRouterFrequency:
    def test_paper_router_speeds(self):
        assert frequency.router_max_frequency(3) == pytest.approx(1.4,
                                                                  rel=1e-4)
        assert frequency.router_max_frequency(5) == pytest.approx(1.2,
                                                                  rel=1e-4)
