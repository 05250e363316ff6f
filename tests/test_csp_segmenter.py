"""Tests for the end-to-end CSP segmenter and relaxation ladder."""

from __future__ import annotations

import pytest

from repro.core.exceptions import EmptyProblemError
from repro.csp.constraints import Relation
from repro.csp.relaxation import RelaxationLevel, encode_at_level
from repro.csp import segmenter as segmenter_module
from repro.csp.segmenter import CspConfig, CspSegmenter
from repro.csp.wsat import WsatConfig
from repro.extraction.observations import ObservationTable
from repro.obs import Observability
from tests.conftest import PAPER_TABLE2, build_observation_table


class TestRelaxationLevels:
    def test_strict_forms(self, paper_table):
        problem = encode_at_level(paper_table, RelaxationLevel.STRICT)
        uniq = [c for c in problem.system.constraints if c.label.startswith("uniq")]
        pos = [c for c in problem.system.constraints if c.label.startswith("pos")]
        assert all(c.relation is Relation.EQ for c in uniq)
        assert all(c.relation is Relation.EQ for c in pos)

    def test_relaxed_positions(self, paper_table):
        problem = encode_at_level(paper_table, RelaxationLevel.RELAXED_POSITIONS)
        uniq = [c for c in problem.system.constraints if c.label.startswith("uniq")]
        pos = [c for c in problem.system.constraints if c.label.startswith("pos")]
        assert all(c.relation is Relation.EQ for c in uniq)
        assert all(c.relation is Relation.LE for c in pos)

    def test_fully_relaxed_has_soft_assign(self, paper_table):
        problem = encode_at_level(paper_table, RelaxationLevel.RELAXED)
        soft = [c for c in problem.system.constraints if not c.hard]
        assert len(soft) == len(paper_table.observations)
        assert all(c.relation is Relation.GE for c in soft)

    def test_soft_assign_can_be_disabled(self, paper_table):
        problem = encode_at_level(
            paper_table, RelaxationLevel.RELAXED, soft_assign=False
        )
        assert all(c.hard for c in problem.system.constraints)

    def test_is_relaxed_property(self):
        assert not RelaxationLevel.STRICT.is_relaxed
        assert RelaxationLevel.RELAXED_POSITIONS.is_relaxed
        assert RelaxationLevel.RELAXED.is_relaxed


class TestSegmenter:
    def test_paper_example_solved_strictly(self, paper_table):
        segmentation = CspSegmenter().segment(paper_table)
        assert segmentation.meta["level"] is RelaxationLevel.STRICT
        assert segmentation.meta["solution_found"]
        assert not segmentation.is_partial
        got = {
            record.record_id: sorted(record.assigned_seqs)
            for record in segmentation.records
        }
        assert got == PAPER_TABLE2

    def test_empty_table_raises(self):
        table = ObservationTable(extracts=[], observations=[], detail_count=1)
        with pytest.raises(EmptyProblemError):
            CspSegmenter().segment(table)

    def test_inconsistent_data_climbs_ladder(self):
        # Three extracts all pinned to record 0 at the same detail
        # position: strict and relaxed-positions rungs are
        # unsatisfiable (paper's Michigan scenario).
        table = build_observation_table(
            [
                ("Parole", {0: (99,)}),
                ("anchor-a", {0: (10,)}),
                ("Parole", {0: (99,)}),
                ("anchor-b", {1: (20,)}),
                ("Parole", {0: (99,)}),
            ],
            detail_count=2,
        )
        segmentation = CspSegmenter().segment(table)
        assert segmentation.meta["relaxed"]
        assert segmentation.meta["level"] is RelaxationLevel.RELAXED
        assert segmentation.is_partial
        # Exactly one of the three "Parole" extracts is kept.
        kept = sum(
            1
            for record in segmentation.records
            for observation in record.observations
            if observation.extract.text == "Parole"
        )
        assert kept == 1

    def test_relaxed_rung_stops_at_proven_floor(self, monkeypatch):
        # Michigan scenario: two of the three "Parole" extracts must go
        # unassigned, so the proven soft floor is 2.
        table = build_observation_table(
            [
                ("Parole", {0: (99,)}),
                ("anchor-a", {0: (10,)}),
                ("Parole", {0: (99,)}),
                ("anchor-b", {1: (20,)}),
                ("Parole", {0: (99,)}),
            ],
            detail_count=2,
        )
        obs = Observability()
        segmentation = CspSegmenter(obs=obs).segment(table)
        relaxed = segmentation.meta["attempts"][-1]
        assert relaxed["level"] == "RELAXED"
        assert relaxed["soft_floor"] == 2.0
        budget = WsatConfig().max_flips * WsatConfig().max_restarts
        assert relaxed["flips_saved"] == budget - relaxed["wsat_flips"] > 0
        counters = obs.metrics.as_dict()["counters"]
        assert counters["csp.wsat.bound"] == 2
        assert counters["csp.wsat.stopped_at_bound"] == 1
        (span,) = [
            span
            for span in obs.tracer.find("csp.level")
            if span.attributes["level"] == "RELAXED"
        ]
        assert span.attributes["soft_floor"] == 2.0
        assert span.attributes["flips_saved"] == relaxed["flips_saved"]

        # Without the floor the search spends its whole budget and
        # lands on the same segmentation.
        monkeypatch.setattr(segmenter_module, "soft_floor", lambda system: 0.0)
        unbounded = CspSegmenter().segment(table)
        assert unbounded.meta["attempts"][-1]["flips_saved"] == 0
        assert [sorted(r.assigned_seqs) for r in unbounded.records] == [
            sorted(r.assigned_seqs) for r in segmentation.records
        ]

    def test_attempt_diagnostics_recorded(self):
        table = build_observation_table(
            [
                ("x", {0: (5,)}),
                ("x", {0: (5,)}),
            ],
            detail_count=1,
        )
        segmentation = CspSegmenter().segment(table)
        attempts = segmentation.meta["attempts"]
        assert attempts[0]["level"] == "STRICT"
        assert attempts[0]["wsat_satisfied"] is False
        # The exact solver proved strict unsatisfiability.
        assert attempts[0].get("exact") == "unsatisfiable"

    def test_soft_assign_off_still_returns_solution(self, paper_table):
        config = CspConfig(soft_assign=False)
        segmentation = CspSegmenter(config).segment(paper_table)
        assert segmentation.meta["solution_found"]

    def test_deterministic(self, paper_table):
        first = CspSegmenter().segment(paper_table)
        second = CspSegmenter().segment(paper_table)
        assert [sorted(r.assigned_seqs) for r in first.records] == [
            sorted(r.assigned_seqs) for r in second.records
        ]

    def test_constraint_stats_exposed(self, paper_table):
        segmentation = CspSegmenter().segment(paper_table)
        stats = segmentation.meta["constraint_stats"]
        assert stats["uniq"] == len(paper_table.observations)
        assert stats["variables"] == 15

    def test_small_budget_still_finishes(self, paper_table):
        config = CspConfig(wsat=WsatConfig(max_flips=50, max_restarts=1))
        segmentation = CspSegmenter(config).segment(paper_table)
        assert segmentation.records  # exact solver backstops tiny budgets
