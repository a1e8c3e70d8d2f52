
import numpy as np
import pytest

from conftest import make_records
from oracles import dm_oracle, metrics_oracle
from vollab.errors import DegenerateTestError, DomainError, VollabError
from vollab.metrics import compute_metrics, dm_test

# Fixture errors and values frozen from the plain-Python reference
# implementation in oracles.py (dm_oracle / metrics_oracle).
E1 = [0.3, -0.1, 0.25, 0.05, -0.4, 0.12, -0.22, 0.31, -0.05, 0.18]
E2 = [0.1, -0.3, 0.05, 0.15, -0.2, 0.32, -0.02, 0.11, -0.25, 0.08]
DM_FROZEN = {
    ("squared", 1): (0.7234952392653916, 0.4877525403537146),
    ("squared", 3): (5.176359916655309, 0.0005821811281518628),
    ("absolute", 1): (0.6666666666666666, 0.5217069270814159),
    ("absolute", 3): (1.842264745887353, 0.0985561278897811),
}

PRED_D = [0.05, -0.02, 0.10]
ACT_D = [0.10, 0.00, -0.04]
PRED_L = [31.0, 29.5, 32.0]
ACT_L = [30.0, 30.5, 31.0]
METRICS_FROZEN = (0.07, 0.08660254037844387, 3.2792761031788, 0.10648230805636189)


class TestComputeMetrics:
    def test_matches_frozen_hand_fixture(self):
        recs = make_records(PRED_D, ACT_D, PRED_L, ACT_L)
        t = compute_metrics(recs)
        mae, rmse, mape, ll = METRICS_FROZEN
        assert t.mae == pytest.approx(mae, abs=1e-9)
        assert t.rmse == pytest.approx(rmse, abs=1e-9)
        assert t.mape == pytest.approx(mape, abs=1e-9)
        assert t.log_loss == pytest.approx(ll, abs=1e-9)

    def test_matches_oracle_on_random_records(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            pd, ad = rng.normal(size=(2, n)) * 0.1
            pl, al = np.exp(rng.normal(size=(2, n)) * 0.2) * 30
            t = compute_metrics(make_records(pd, ad, pl, al))
            mae, rmse, mape, ll = metrics_oracle(pd, ad, pl, al)
            assert t.mae == pytest.approx(mae, abs=1e-12)
            assert t.rmse == pytest.approx(rmse, abs=1e-12)
            assert t.mape == pytest.approx(mape, abs=1e-9)
            assert t.log_loss == pytest.approx(ll, abs=1e-9)

    def test_mae_never_exceeds_rmse(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            pd, ad = rng.normal(size=(2, n))
            pl = al = np.full(n, 30.0)
            t = compute_metrics(make_records(pd, ad, pl, al))
            assert t.mae <= t.rmse + 1e-12

    def test_rejects_non_positive_levels(self):
        with pytest.raises(DomainError):
            compute_metrics(make_records([0.0], [0.0], [-1.0], [30.0]))

    def test_rejects_empty(self):
        with pytest.raises(VollabError):
            compute_metrics([])


class TestDmTest:
    def test_matches_frozen_fixture(self):
        for (loss, h), (stat, p) in DM_FROZEN.items():
            r = dm_test(E1, E2, h=h, loss=loss)
            assert r.statistic == pytest.approx(stat, abs=1e-9), (loss, h)
            assert r.p_value == pytest.approx(p, abs=1e-9), (loss, h)

    def test_matches_oracle_on_random_sequences(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 60))
            e1, e2 = rng.normal(size=(2, n))
            h = int(rng.integers(1, 4))
            loss = ["squared", "absolute"][int(rng.integers(2))]
            r = dm_test(e1, e2, h=h, loss=loss)
            stat, p = dm_oracle(e1, e2, h, loss)
            assert r.statistic == pytest.approx(stat, abs=1e-10)
            assert r.p_value == pytest.approx(p, abs=1e-10)

    def test_antisymmetric_in_arguments(self, rng):
        e1, e2 = rng.normal(size=(2, 30))
        a = dm_test(e1, e2)
        b = dm_test(e2, e1)
        assert a.statistic == pytest.approx(-b.statistic, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_size_under_the_null(self):
        """At nominal 5%, rejection rate over null trials must sit in [2%, 9%]."""
        rng = np.random.default_rng(2024)
        n, trials, rejections = 50, 1000, 0
        for _ in range(trials):
            e1, e2 = rng.normal(size=(2, n))
            if dm_test(e1, e2).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.09

    def test_detects_a_clearly_worse_forecast(self, rng):
        e2 = rng.normal(size=200) * 0.1
        e1 = e2 + rng.normal(size=200) * 0.5
        r = dm_test(e1, e2)
        assert r.statistic > 2
        assert r.p_value < 0.05

    def test_identical_errors_degenerate(self, rng):
        e = rng.normal(size=20)
        with pytest.raises(DegenerateTestError):
            dm_test(e, e.copy())

    def test_short_sample_rejected(self):
        with pytest.raises(VollabError):
            dm_test(np.ones(5), np.zeros(5))

    def test_unknown_loss_rejected(self, rng):
        e1, e2 = rng.normal(size=(2, 10))
        with pytest.raises(VollabError):
            dm_test(e1, e2, loss="huber")
