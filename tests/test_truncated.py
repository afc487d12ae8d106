"""Tests for truncated-family profiles tr^m(a) for S = {a..m}.

The frozen rows below come straight out of the exact convergence search:
tr(a) = ceil(xi({a..m}) / 2m).  Structural landmarks checked here: the
head is always tr(1) = 1, the final entry is tr(m-1) = m-1, the early
range 2 <= a <= ceil(m/2) sits at 2, the last first-difference always
equals the multiplicity of the value 2 (the simple floor(m/2) form for
that quantity holds for odd m only), and the distinct-count/mirror laws
hold on every m tested.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from cumsub import (
    TheoremViolationError,
    check_duality_conjecture,
    check_duality_theorem,
    duality_conjecture_report,
    sweep_truncated,
    tr_sequence,
    truncated,
)
from cumsub.cli import main

TR_ROWS = {
    2: (1,),
    3: (1, 2),
    4: (1, 2, 3),
    5: (1, 2, 2, 4),
    6: (1, 2, 2, 3, 5),
    7: (1, 2, 2, 2, 3, 6),
    8: (1, 2, 2, 2, 3, 4, 7),
    9: (1, 2, 2, 2, 2, 3, 4, 8),
    10: (1, 2, 2, 2, 2, 3, 3, 5, 9),
}
DISTINCT_COUNTS = {2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 8: 5, 9: 5, 10: 5}


class TestTrSequence:
    def test_frozen_rows(self):
        for m, row in TR_ROWS.items():
            profile = tr_sequence(m)
            assert profile.tr == row, m
            assert len(profile.x_values) == DISTINCT_COUNTS[m], m

    def test_profile_m10_structure(self):
        profile = tr_sequence(10)
        assert profile.x_values == (1, 2, 3, 5, 9)
        assert profile.deltas == (1, 1, 2, 4)
        assert profile.multiplicities == (1, 4, 2, 1, 1)

    def test_profile_invariants(self):
        for m in range(2, 15):
            profile = tr_sequence(m)
            assert len(profile.tr) == m - 1
            assert profile.tr[0] == 1
            assert profile.tr[-1] == m - 1
            assert all(a <= b for a, b in zip(profile.tr, profile.tr[1:]))
            assert sum(profile.multiplicities) == m - 1
            assert profile.x_values == tuple(sorted(set(profile.tr)))
            assert profile.deltas == tuple(
                b - a for a, b in zip(profile.x_values, profile.x_values[1:])
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            tr_sequence(1)

    def test_as_dict_schema(self):
        d = tr_sequence(5).as_dict()
        assert d == {
            "m": 5,
            "tr": [1, 2, 2, 4],
            "x_values": [1, 2, 4],
            "deltas": [1, 2],
            "multiplicities": [1, 2, 1],
        }


class TestDualityTheorem:
    def test_odd_m_matches_stated_form(self):
        report = check_duality_theorem(tr_sequence(9))
        assert report.early_a_range == (2, 5)
        assert report.early_all_two
        assert report.last_delta == 4
        assert report.multiplicity_of_two == 4
        assert report.stated_value == 4
        assert report.delta_equals_multiplicity
        assert report.matches_stated

    def test_even_m_departs_from_stated_form(self):
        # The last delta still equals the multiplicity of 2, but both sit
        # one below floor(m/2) when m is even.
        report = check_duality_theorem(tr_sequence(10))
        assert report.last_delta == 4
        assert report.multiplicity_of_two == 4
        assert report.stated_value == 5
        assert report.delta_equals_multiplicity
        assert not report.matches_stated

    def test_parity_pattern(self):
        for m in range(3, 21):
            report = check_duality_theorem(tr_sequence(m))
            assert report.early_all_two, m
            assert report.delta_equals_multiplicity, m
            assert report.matches_stated == (m % 2 == 1), m

    def test_requires_m_at_least_3(self):
        with pytest.raises(ValueError):
            check_duality_theorem(tr_sequence(2))

    def test_profile_without_value_two(self):
        # No real profile lacks tr = 2 for m >= 3; a forged one must be
        # reported as failing, not raise on the missing value.
        forged = truncated.TruncationProfile(
            m=5, tr=(1, 3, 3, 4), x_values=(1, 3, 4), deltas=(2, 1), multiplicities=(1, 2, 1)
        )
        report = check_duality_theorem(forged)
        assert report.multiplicity_of_two == 0
        assert report.early_all_two is False
        assert not report.delta_equals_multiplicity

    def test_as_dict_schema(self):
        d = check_duality_theorem(tr_sequence(5)).as_dict()
        assert d["m"] == 5
        assert d["early_a_range"] == [2, 3]
        assert d["matches_stated"] is True


class TestDualityConjecture:
    def test_m10(self):
        report = check_duality_conjecture(tr_sequence(10))
        assert report.distinct_count == 5
        assert report.expected_distinct == 5
        assert report.deltas == (1, 1, 2, 4)
        assert report.reversed_tail_multiplicities == (1, 1, 2, 4)
        assert report.passed

    def test_m2_degenerate(self):
        # tr = (1,): no deltas, no non-1 values, expected count isqrt(1) = 1.
        report = check_duality_conjecture(tr_sequence(2))
        assert report.distinct_count == report.expected_distinct == 1
        assert report.deltas == ()
        assert report.reversed_tail_multiplicities == ()
        assert report.passed

    def test_holds_through_m25(self):
        for m in range(2, 26):
            assert check_duality_conjecture(tr_sequence(m)).passed, m

    def test_report_schema(self):
        report = duality_conjecture_report(2, 12)
        assert report["conjecture"] == "truncated-duality"
        assert report["verdict"] == "holds"
        assert report["swept_space"] == {"m_count": 11}
        assert report["counterexamples"] == []

    @pytest.mark.parametrize("field", ["early_all_two", "delta_equals_multiplicity"])
    def test_report_raises_on_theorem_violation(self, monkeypatch, capsys, tmp_path, field):
        # A proven part failing at one m is a solver bug: the report must
        # raise, and the CLI exit 3 with nothing on stdout.  trunc raises
        # before it writes that m's CSV.
        check = truncated.check_duality_theorem

        def broken(profile):
            report = check(profile)
            return dataclasses.replace(report, **{field: profile.m != 7})

        monkeypatch.setattr(truncated, "check_duality_theorem", broken)
        with pytest.raises(TheoremViolationError, match="m=7"):
            duality_conjecture_report(2, 10)
        assert main(["scan", "duality", "--m-min", "2", "--m-max", "10"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("theorem violation: proven tr structure fails at m=7")
        assert main(["trunc", "2", "8", "--json", "--csv-dir", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("theorem violation: proven tr structure fails at m=7")
        assert (tmp_path / "tr_6.csv").exists() and not (tmp_path / "tr_7.csv").exists()

    def test_report_rejects_empty_range(self):
        # The report shares sweep_truncated's range check: no "holds" over
        # zero values of m.
        with pytest.raises(ValueError, match="m_min <= m_max"):
            duality_conjecture_report(5, 3)


class TestSweep:
    def test_reports_and_csv_emission(self, tmp_path):
        reports = sweep_truncated(2, 6, csv_dir=str(tmp_path))
        assert [rep["m"] for rep in reports] == [2, 3, 4, 5, 6]
        assert reports[0]["theorem"] is None  # theorem needs m >= 3
        assert reports[3]["tr"] == [1, 2, 2, 4]
        assert all(rep["conjecture"]["pass"] for rep in reports)
        for m in range(2, 7):
            assert (tmp_path / f"tr_{m}.csv").exists()
        content = (tmp_path / "tr_5.csv").read_text()
        assert content == "a,tr\n1,1\n2,2\n3,2\n4,4\n"

    def test_sweep_without_csv(self):
        reports = sweep_truncated(3, 4)
        assert len(reports) == 2
        assert reports[0]["theorem"]["matches_stated"] is True

    @pytest.mark.skipif(
        sys.implementation.name != "cpython", reason="needs CPython's allocated-block count"
    )
    def test_repeated_sweeps_keep_heap_flat(self):
        # A generator-built tuple is resized from a spare slot, and freeing
        # it refills CPython's small-tuple free lists, so each pass grew the
        # heap by about 800 blocks; exact-size tuples keep it near 240.
        # No gc.collect() here: a full collection empties the free lists.
        sweep_truncated(2, 40)
        before = sys.getallocatedblocks()
        for _ in range(4):
            sweep_truncated(2, 40)
        assert sys.getallocatedblocks() - before < 4 * 400

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_truncated(1, 5)
        with pytest.raises(ValueError):
            sweep_truncated(5, 3)
