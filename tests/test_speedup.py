import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdesk.errors import ParameterError
from specdesk.speedup import SpeedupInputs, speedup_model


class TestSpeedupModel:
    def test_direct_arithmetic(self):
        r = speedup_model(SpeedupInputs(tau=2.0, d=4, t_draft=0.1, t_target=1.0,
                                        t_verify=1.0))
        assert r.ratio == pytest.approx(0.7, abs=1e-12)
        assert r.speedup == pytest.approx(1.0 / 0.7, abs=1e-12)

    def test_verification_bound_limit(self):
        # T_d -> 0, T_v == T_t: ratio approaches 1/tau.
        r = speedup_model(SpeedupInputs(tau=3.0, d=4, t_draft=1e-12,
                                        t_target=1.0, t_verify=1.0))
        assert r.ratio == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_degenerate_speculation_harmful(self):
        r = speedup_model(SpeedupInputs(tau=1.0, d=1, t_draft=1.0, t_target=1.0,
                                        t_verify=1.0))
        assert r.ratio == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SpeedupInputs(tau=0.5, d=1, t_draft=1, t_target=1, t_verify=1)
        with pytest.raises(ParameterError):
            SpeedupInputs(tau=1, d=0, t_draft=1, t_target=1, t_verify=1)
        with pytest.raises(ParameterError):
            SpeedupInputs(tau=1, d=1, t_draft=0, t_target=1, t_verify=1)

    def test_a_ratio_that_over_or_underflows_is_refused(self):
        with pytest.raises(ParameterError, match="over- or underflows"):
            speedup_model(SpeedupInputs(tau=1, d=4, t_draft=1e308, t_target=1e-10,
                                        t_verify=1))
        with pytest.raises(ParameterError, match="over- or underflows"):
            speedup_model(SpeedupInputs(tau=1e300, d=1, t_draft=1e-300, t_target=1e300,
                                        t_verify=1e-300))

    @settings(max_examples=500, deadline=None)
    @given(tau=st.floats(1.0, 50.0), d=st.integers(1, 32),
           td=st.floats(1e-6, 10.0), tt=st.floats(1e-6, 10.0),
           tv=st.floats(1e-6, 10.0), dtau=st.floats(0.01, 10.0),
           dtd=st.floats(1e-7, 1.0))
    def test_monotonicity(self, tau, d, td, tt, tv, dtau, dtd):
        base = speedup_model(SpeedupInputs(tau=tau, d=d, t_draft=td,
                                           t_target=tt, t_verify=tv))
        more_tau = speedup_model(SpeedupInputs(tau=tau + dtau, d=d, t_draft=td,
                                               t_target=tt, t_verify=tv))
        assert more_tau.speedup > base.speedup
        slower_draft = speedup_model(SpeedupInputs(tau=tau, d=d, t_draft=td + dtd,
                                                   t_target=tt, t_verify=tv))
        assert slower_draft.speedup < base.speedup
