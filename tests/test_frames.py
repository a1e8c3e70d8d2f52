import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scan_align
from vollab.errors import (
    AlignmentError,
    EmptyInputError,
    IntegrityError,
    ParseError,
    VollabError,
)
from vollab.frames import (
    PartitionSpec,
    TimeSeriesFrame,
    align,
    business_days,
    generate_synthetic,
    load_csv,
    partition,
)


def frame(dates, **cols):
    return TimeSeriesFrame(tuple(dates), {k: np.asarray(v, float) for k, v in cols.items()})


D = business_days(dt.date(2021, 1, 4), 30)

POOL = business_days(dt.date(2021, 1, 4), 40)
VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.25e8])


@st.composite
def frame_sets(draw):
    """1 to 4 frames, each of 1 to 15 dates drawn from a 40-day pool and 1 to
    3 uniquely named columns whose values include +0.0 and -0.0."""
    frames = []
    for k in range(draw(st.integers(1, 4))):
        dates = sorted(draw(st.sets(st.sampled_from(POOL), min_size=1, max_size=15)))
        width = draw(st.integers(1, 3))
        cols = {f"f{k}c{j}": draw(st.lists(VALUES, min_size=len(dates), max_size=len(dates)))
                for j in range(width)}
        frames.append(frame(dates, **cols))
    return frames


class TestTimeSeriesFrame:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(IntegrityError):
            frame([D[1], D[0]], a=[1.0, 2.0])

    def test_rejects_duplicate_dates(self):
        with pytest.raises(IntegrityError):
            frame([D[0], D[0]], a=[1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(IntegrityError):
            frame(D[:3], a=[1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(IntegrityError):
            frame(D[:2], a=[1.0, np.nan])

    def test_columns_are_frozen(self):
        f = frame(D[:2], a=[1.0, 2.0])
        with pytest.raises(ValueError):
            f.column("a")[0] = 9.0


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        f = generate_synthetic(seed=1, n_days=40)
        p = tmp_path / "x.csv"
        f.to_csv(p)
        g = load_csv(p)
        assert g.dates == f.dates
        assert g.names == f.names
        for n in f.names:
            np.testing.assert_array_equal(g.column(n), f.column(n))

    def test_sorts_rows_by_date(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,a\n2021-01-06,3\n2021-01-04,1\n2021-01-05,2\n")
        f = load_csv(p)
        assert [d.day for d in f.dates] == [4, 5, 6]
        np.testing.assert_array_equal(f.column("a"), [1.0, 2.0, 3.0])

    def test_reports_line_numbers(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,a\n2021-01-04,1\nnot-a-date,2\n")
        with pytest.raises(ParseError, match=":3"):
            load_csv(p)

    @pytest.mark.parametrize("header, message", [
        ("date,vol_index,a,a", "x.csv:1: duplicate column name 'a'"),
        ("date, a ,b,a", "x.csv:1: duplicate column name 'a'"),
        ("date,,a", "x.csv:1: empty column name"),
        ("date,a, ", "x.csv:1: empty column name"),
    ])
    def test_duplicate_or_empty_column_name_is_parse_error(self, tmp_path, header, message):
        p = tmp_path / "x.csv"
        p.write_text(header + "\n2021-01-04" + ",1" * header.count(",") + "\n")
        with pytest.raises(ParseError, match=message):
            load_csv(p)

    def test_duplicate_date_is_integrity_error(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,a\n2021-01-04,1\n2021-01-04,2\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("")
        with pytest.raises(EmptyInputError):
            load_csv(p)

    def test_bad_cell_count(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,a,b\n2021-01-04,1\n")
        with pytest.raises(ParseError, match=":2"):
            load_csv(p)


class TestAlign:
    def test_forward_fills_holidays(self):
        a = frame([D[0], D[1], D[2], D[3]], a=[1, 2, 3, 4])
        b = frame([D[0], D[2], D[3]], b=[10, 30, 40])  # missing D[1]
        j = align([a, b])
        assert j.dates == (D[0], D[1], D[2], D[3])
        np.testing.assert_array_equal(j.column("b"), [10, 10, 30, 40])

    def test_restricts_to_common_range(self):
        a = frame(D[:5], a=range(5))
        b = frame(D[2:8], b=range(6))
        j = align([a, b])
        assert j.dates == tuple(D[2:5])

    def test_drops_rows_before_every_column_has_an_in_range_value(self):
        # a's D[0] lies before the common range, so a has no value on D[1]
        a = frame([D[0], D[2], D[4]], a=[1, 3, 5])
        b = frame([D[1], D[3], D[4]], b=[20, 40, 50])
        j = align([a, b])
        assert j.dates == (D[2], D[3], D[4])
        np.testing.assert_array_equal(j.column("a"), [3, 3, 5])
        np.testing.assert_array_equal(j.column("b"), [20, 40, 50])

    def test_column_without_in_range_observation_raises(self):
        a = frame([D[0], D[1], D[2], D[3]], a=[1, 2, 3, 4])
        b = frame([D[0], D[3]], b=[10, 40])
        c = frame([D[1], D[2]], c=[7, 8])
        with pytest.raises(AlignmentError, match="'b' has no observations"):
            align([a, b, c])

    def test_disjoint_ranges_raise(self):
        a = frame(D[:3], a=[1, 2, 3])
        b = frame(D[5:8], b=[1, 2, 3])
        with pytest.raises(AlignmentError):
            align([a, b])

    def test_duplicate_column_names_raise(self):
        a = frame(D[:3], a=[1, 2, 3])
        b = frame(D[:3], a=[4, 5, 6])
        with pytest.raises(IntegrityError):
            align([a, b])

    def test_single_frame_is_identity(self):
        a = frame(D[:4], a=[1, 2, 3, 4])
        j = align([a])
        assert j.dates == a.dates
        np.testing.assert_array_equal(j.column("a"), a.column("a"))

    def test_single_loaded_csv_keeps_its_dates_names_and_bytes(self, tmp_path):
        # one data.csv entry goes through align like several do
        path = tmp_path / "one.csv"
        for seed in range(20):
            generate_synthetic(seed, 30 + 7 * seed, seed % 4).to_csv(str(path))
            f = load_csv(str(path))
            j = align([f])
            assert j.dates == f.dates and j.names == f.names
            for n in f.names:
                assert j.column(n).tobytes() == f.column(n).tobytes()

    @given(frame_sets())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_scan_oracle(self, frames):
        try:
            want = scan_align(frames)
        except VollabError as exc:
            with pytest.raises(type(exc)) as got:
                align(frames)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        got = align(frames)
        assert got.dates == want.dates
        assert got.names == want.names
        for n in want.names:
            assert got.column(n).tobytes() == want.column(n).tobytes(), n


class TestPartition:
    def test_inclusive_bounds(self):
        f = frame(D[:10], a=range(10))
        p = partition(f, PartitionSpec("test", D[2], D[5]))
        assert p.dates == tuple(D[2:6])

    def test_endpoints_on_unobserved_dates(self):
        f = frame(D[:15], a=range(15))
        weekend = PartitionSpec("test", dt.date(2021, 1, 9), dt.date(2021, 1, 17))
        p = partition(f, weekend)  # Saturday to Sunday: the Monday to Friday between
        assert p.dates == tuple(D[5:10])
        np.testing.assert_array_equal(p.column("a"), range(5, 10))
        gap = PartitionSpec("test", dt.date(2021, 1, 9), dt.date(2021, 1, 10))
        with pytest.raises(EmptyInputError, match="selects no rows"):
            partition(f, gap)

    def test_empty_selection_raises(self):
        f = frame(D[:5], a=range(5))
        with pytest.raises(EmptyInputError):
            partition(f, PartitionSpec("test", dt.date(1999, 1, 1), dt.date(1999, 2, 1)))

    def test_backwards_spec_raises(self):
        with pytest.raises(IntegrityError):
            PartitionSpec("test", D[5], D[2])


class TestBusinessDays:
    def test_skips_weekends(self):
        days = business_days(dt.date(2021, 1, 1), 5)  # Friday start
        assert all(d.weekday() < 5 for d in days)
        assert days[0] == dt.date(2021, 1, 1)
        assert days[1] == dt.date(2021, 1, 4)

    @given(st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_strictly_increasing(self, n):
        days = business_days(dt.date(2020, 3, 1), n)
        assert len(days) == n
        assert all(a < b for a, b in zip(days, days[1:]))


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(seed=7, n_days=50)
        b = generate_synthetic(seed=7, n_days=50)
        for n in a.names:
            np.testing.assert_array_equal(a.column(n), b.column(n))

    def test_seed_changes_values(self):
        a = generate_synthetic(seed=7, n_days=50)
        b = generate_synthetic(seed=8, n_days=50)
        assert not np.array_equal(a.column("vol_index"), b.column("vol_index"))

    def test_negative_seed_rejected(self):
        with pytest.raises(VollabError, match="seed must be >= 0, got -1"):
            generate_synthetic(seed=-1, n_days=50)

    def test_columns_positive(self):
        f = generate_synthetic(seed=3, n_days=300)
        for n in f.names:
            assert np.all(f.column(n) > 0), n

    def test_vol_index_stylized_facts(self):
        f = generate_synthetic(seed=5, n_days=3000)
        v = f.column("vol_index")
        d = np.diff(np.log(v))
        # positive skew in levels and fat tails in log-diffs
        lv = np.log(v)
        skew = np.mean(((v - v.mean()) / v.std()) ** 3)
        kurt = np.mean(((d - d.mean()) / d.std()) ** 4)
        assert skew > 0.5
        assert kurt > 3.5
        # mean reversion: lag-1 autocorrelation of logs below 1
        ac = np.corrcoef(lv[:-1], lv[1:])[0, 1]
        assert 0.8 < ac < 0.999
