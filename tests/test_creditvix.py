import numpy as np
import pytest

from oracles import credit_vix_oracle
from vollab.creditvix import CreditVixInputs, implied_variance, implied_vol, load_option_chain
from vollab.errors import DomainError, NumericError, ParseError, VollabError


def chain(strikes, prices, intervals, k0, cdsi, horizon=1 / 12, rpv01=1.0):
    return CreditVixInputs(
        strikes=np.asarray(strikes, float),
        prices=np.asarray(prices, float),
        intervals=np.asarray(intervals, float),
        k0=k0, cdsi=cdsi, horizon=horizon, rpv01=rpv01,
    )


def random_chain(rng, n=None):
    n = n or int(rng.integers(2, 12))
    strikes = np.sort(rng.uniform(50, 300, size=n))
    while np.any(np.diff(strikes) <= 0):
        strikes = np.sort(rng.uniform(50, 300, size=n))
    prices = rng.uniform(0.0, 5.0, size=n)
    intervals = rng.uniform(1.0, 20.0, size=n)
    k0 = float(strikes[n // 2])
    cdsi = k0 * float(rng.uniform(0.995, 1.005))
    return chain(strikes, prices, intervals, k0, cdsi,
                 horizon=float(rng.uniform(0.05, 0.5)),
                 rpv01=float(rng.uniform(0.5, 5.0)))


class TestFormulaExamples:
    def test_single_strike_hand_value(self):
        # T=1/12, RPV01=1, one strike K=100 with P=1, dK=10, CDSI=K0=100:
        # sigma^2 = 24 * 10 / 10^4 = 0.024
        c = chain([100.0], [1.0], [10.0], k0=100.0, cdsi=100.0)
        assert implied_variance(c) == pytest.approx(0.024, abs=1e-12)

    def test_zero_correction_when_cdsi_equals_k0(self, rng):
        for _ in range(5):
            c = random_chain(rng)
            c2 = chain(c.strikes, c.prices, c.intervals, c.k0, c.k0,
                       c.horizon, c.rpv01)
            strip = 2.0 / (c2.horizon * c2.rpv01) * float(
                np.sum(c2.prices * c2.intervals / c2.strikes ** 2)
            )
            assert implied_variance(c2) == pytest.approx(strip, abs=1e-12)

    def test_zero_prices_and_zero_drift_give_zero(self):
        c = chain([90.0, 100.0, 110.0], [0.0, 0.0, 0.0], [10.0, 10.0, 10.0],
                  k0=100.0, cdsi=100.0)
        assert implied_variance(c) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_chains(self, rng):
        for _ in range(50):
            c = random_chain(rng)
            want = credit_vix_oracle(c.strikes, c.prices, c.intervals,
                                     c.k0, c.cdsi, c.horizon, c.rpv01)
            if want < 0:
                with pytest.raises(NumericError):
                    implied_variance(c)
            else:
                assert implied_variance(c) == pytest.approx(want, abs=1e-12)
                assert implied_vol(c) == pytest.approx(np.sqrt(want), abs=1e-12)


class TestInvariants:
    def test_monotone_in_prices(self, rng):
        for _ in range(100):
            c = random_chain(rng)
            bumped = chain(c.strikes, c.prices + rng.uniform(0.1, 1.0, len(c.prices)),
                           c.intervals, c.k0, c.cdsi, c.horizon, c.rpv01)
            try:
                base = implied_variance(c)
            except NumericError:
                continue
            assert implied_variance(bumped) > base

    def test_interval_splitting_invariance(self, rng):
        """Splitting one strike's interval into two co-located halves with the
        same price leaves the variance unchanged."""
        for _ in range(100):
            c = random_chain(rng)
            j = int(rng.integers(len(c.strikes)))
            eps = 1e-7
            strikes, prices, dks = [], [], []
            for i in range(len(c.strikes)):
                if i == j:
                    strikes += [c.strikes[i] - eps, c.strikes[i] + eps]
                    prices += [c.prices[i], c.prices[i]]
                    dks += [c.intervals[i] / 2, c.intervals[i] / 2]
                else:
                    strikes.append(c.strikes[i])
                    prices.append(c.prices[i])
                    dks.append(c.intervals[i])
            split = chain(strikes, prices, dks, c.k0, c.cdsi, c.horizon, c.rpv01)
            try:
                base = implied_variance(c)
            except NumericError:
                continue
            assert implied_variance(split) == pytest.approx(base, rel=1e-5)

    def test_negative_variance_reports_both_terms(self):
        c = chain([100.0], [1e-9], [1.0], k0=100.0, cdsi=150.0)
        with pytest.raises(NumericError, match="strip term .* correction"):
            implied_variance(c)


class TestValidation:
    def test_rejects_unsorted_strikes(self):
        with pytest.raises(DomainError):
            chain([110.0, 100.0], [1.0, 1.0], [10.0, 10.0], 100.0, 100.0)

    def test_rejects_negative_prices(self):
        with pytest.raises(DomainError):
            chain([100.0], [-0.5], [10.0], 100.0, 100.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(VollabError):
            chain([100.0], [1.0], [10.0], 100.0, 100.0, horizon=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["strikes", "prices", "intervals", "k0", "cdsi",
                                      "horizon", "rpv01"])
    def test_rejects_non_finite(self, name, value):
        args = dict(strikes=[100.0, 110.0], prices=[1.0, 2.0], intervals=[10.0, 10.0],
                    k0=100.0, cdsi=100.0, horizon=1 / 12, rpv01=1.0)
        args[name] = [args[name][0], value] if name in ("strikes", "prices", "intervals") \
            else value
        with pytest.raises(NumericError, match=f"{name} must be finite"):
            chain(**args)

    def test_rejects_length_mismatch(self):
        with pytest.raises(VollabError):
            chain([100.0, 110.0], [1.0], [10.0], 100.0, 100.0)


class TestLoadChain:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "chain.csv"
        p.write_text(
            "# horizon=0.0833\n# rpv01=4.2\n# cdsi=0.0062\n# k0=0.006\n"
            "K,P,dK\n0.005,0.0001,0.001\n0.006,0.0004,0.001\n"
        )
        c = load_option_chain(p)
        assert c.rpv01 == 4.2
        np.testing.assert_array_equal(c.strikes, [0.005, 0.006])

    def test_missing_metadata(self, tmp_path):
        p = tmp_path / "chain.csv"
        p.write_text("# k0=1\nK,P,dK\n1,1,1\n")
        with pytest.raises(ParseError, match="missing metadata"):
            load_option_chain(p)

    @pytest.mark.parametrize("text, message", [
        ("\n# horizon=x\n", "chain.csv:2: bad metadata line"),
        ("# horizon=1\n\n# rpv01=1\n# cdsi=1\n# k0=1\n\nK,P,dK\n1,1,1\n\n\n2,x,1\n",
         "chain.csv:11: non-numeric cell"),
        ("# horizon=1\n# rpv01=1\n\n# cdsi=1\n# k0=1\nK,P,dK\n\n1,1\n", "chain.csv:8: expected 3"),
    ], ids=["metadata", "cell", "cell_count"])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        # blank lines are skipped, but still counted
        p = tmp_path / "chain.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_option_chain(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "chain.csv"
        p.write_text("# horizon=1\n# rpv01=1\n# cdsi=1\n# k0=1\nstrike,price\n1,1\n")
        with pytest.raises(ParseError):
            load_option_chain(p)
