"""The CSP record segmenter (paper Section 4, end-to-end).

Orchestrates encoding, solving and relaxation:

1. encode the observation table at the STRICT rung (encodings are
   memoized per rung through an :class:`~repro.csp.encoder.EncodingMemo`,
   so a rung revisited by the final fallback is never re-encoded);
2. *probe* the rung with the exact solver first: a proof of
   unsatisfiability skips the local search entirely — a provably
   unsatisfiable rung is where the search would otherwise burn its
   whole flip budget for nothing (see ``docs/performance.md``);
3. otherwise run the WSAT(OIP)-style local search from a problem-aware
   seed (every extract dropped into a random record of its ``D_i``, so
   uniqueness starts satisfied); if the search fails, the probe's
   satisfying assignment (when it found one) backstops it;
4. on failure, climb the relaxation ladder and repeat; on the fully
   relaxed rung, first prove a lower bound on the soft violation
   (:func:`~repro.csp.exact.soft_floor`) so the search stops as soon as
   it reaches that proven optimum;
5. decode the winning assignment into a
   :class:`~repro.core.results.Segmentation`, applying the paper's
   rest-of-the-data attachment rule.

The reordering in step 2 is output-preserving: on rungs the probe
proves unsatisfiable the local search could never have produced a
solution (its result was always discarded), and on every other rung
the search runs with exactly the trajectory it always had, so the
winning rung and assignment — hence the segmentation — are identical
to the probe-less formulation.  The stop at the soft floor in step 4
is output-preserving for the same kind of reason: the search only
replaces its best state on a strict improvement, and nothing improves
on a proven optimum.

The result's ``meta`` records which rung won, whether a solution was
found at all, and per-rung solver diagnostics — the inputs for Table
4's *c* ("No solution found") and *d* ("Relax constraints") notes.

When handed an :class:`~repro.obs.Observability` bundle the segmenter
additionally emits a ``csp.segment`` span with one ``csp.level`` child
per rung attempted, and books solver effort into the registry
(``csp.wsat.flips``, ``csp.wsat.restarts``,
``csp.wsat.unsat_constraints``, ``csp.wsat.bound``,
``csp.wsat.stopped_at_bound``, ``csp.exact.nodes``,
``csp.exact.backtracks``, ``csp.relaxations`` — see
``docs/observability.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.exceptions import EmptyProblemError, SolverBudgetExceededError
from repro.core.results import Segmentation
from repro.csp.encoder import EncoderConfig, EncodingMemo, SegmentationCsp
from repro.csp.exact import ExactConfig, ExactSolver, soft_floor
from repro.csp.relaxation import RelaxationLevel, encode_at_level
from repro.csp.wsat import WsatConfig, WsatSolver
from repro.extraction.observations import ObservationTable
from repro.obs import Observability, current as current_obs

__all__ = ["CspConfig", "CspSegmenter"]


@dataclass(frozen=True)
class CspConfig:
    """Configuration of the CSP segmenter.

    Attributes:
        wsat: local-search parameters.
        exact: exact-solver limits.
        encoder: level-independent encoding knobs.
        use_exact: consult the exact solver when the local search
            fails (find a solution or prove unsat before relaxing).
        exact_var_limit: skip the exact solver on problems with more
            variables than this (budget protection).
        soft_assign: add the soft assign-me objective at the fully
            relaxed rung (see :func:`repro.csp.relaxation.encode_at_level`).
            Disable for the paper-faithful sparse-partial behaviour.
        seed: seed for the problem-aware initial assignment.
    """

    wsat: WsatConfig = field(default_factory=WsatConfig)
    exact: ExactConfig = field(default_factory=ExactConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    use_exact: bool = True
    exact_var_limit: int = 2000
    soft_assign: bool = True
    seed: int = 0


class CspSegmenter:
    """Segment records by pseudo-boolean constraint solving."""

    method_name = "csp"

    def __init__(
        self,
        config: CspConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or CspConfig()
        self.obs = obs if obs is not None else current_obs()

    def segment(self, table: ObservationTable) -> Segmentation:
        """Segment one list page's observation table.

        Raises:
            EmptyProblemError: the table has no usable observations.
        """
        if not table.observations:
            raise EmptyProblemError("no observations to segment")

        with self.obs.span(
            "csp.segment", observations=len(table.observations)
        ) as span:
            segmentation = self._segment_traced(table)
            meta = segmentation.meta
            span.attributes["level"] = getattr(
                meta.get("level"), "name", str(meta.get("level"))
            )
            span.attributes["solution_found"] = meta.get("solution_found")
            span.attributes["records"] = len(segmentation.records)
        return segmentation

    def _segment_traced(self, table: ObservationTable) -> Segmentation:
        attempts: list[dict[str, object]] = []
        memo = EncodingMemo()
        for level in RelaxationLevel:
            if level.is_relaxed:
                self.obs.counter("csp.relaxations").inc()
            problem = self._encode(memo, table, level)
            outcome = self._solve_level(problem, level)
            attempts.append(outcome["diag"])  # type: ignore[index]
            if outcome["assignment"] is not None:
                assignment_map = problem.decode(outcome["assignment"])  # type: ignore[arg-type]
                return Segmentation.from_assignment(
                    method=self.method_name,
                    table=table,
                    assignment=assignment_map,
                    meta={
                        "level": level,
                        "relaxed": level.is_relaxed,
                        "solution_found": True,
                        "attempts": attempts,
                        "constraint_stats": problem.system.stats(),
                    },
                )

        # Every rung failed (even RELAXED, which is unusual): fall back
        # to the best local-search assignment of the last rung so the
        # caller still gets the most consistent partial segmentation.
        # The memo makes this revisit of the RELAXED rung free, and the
        # rung's diagnostics carry its proven floor, so this search is
        # the very one the rung ran.
        problem = self._encode(memo, table, RelaxationLevel.RELAXED)
        result = WsatSolver(
            problem.system, self.config.wsat, clock=self.obs.clock
        ).solve(
            self._seed_assignment(problem),
            soft_floor=attempts[-1]["soft_floor"],  # type: ignore[arg-type]
        )
        self._record_wsat(result)
        assignment_map = problem.decode(result.assignment)
        return Segmentation.from_assignment(
            method=self.method_name,
            table=table,
            assignment=assignment_map,
            meta={
                "level": RelaxationLevel.RELAXED,
                "relaxed": True,
                "solution_found": False,
                "attempts": attempts,
                "constraint_stats": problem.system.stats(),
            },
        )

    # -- internals ---------------------------------------------------------

    def _encode(
        self,
        memo: EncodingMemo,
        table: ObservationTable,
        level: RelaxationLevel,
    ) -> SegmentationCsp:
        """Encode ``table`` at ``level``, memoized per ``segment`` call."""
        return memo.get_or_build(
            level,
            lambda: encode_at_level(
                table, level, self.config.encoder,
                soft_assign=self.config.soft_assign,
            ),
        )

    def _seed_assignment(self, problem: SegmentationCsp) -> list[int]:
        """Drop each extract into one random record of its ``D_i``."""
        rng = random.Random(self.config.seed)
        assignment = [0] * problem.system.num_vars
        for observation in problem.table.observations:
            records = sorted(observation.detail_pages)
            chosen = records[rng.randrange(len(records))]
            assignment[problem.var_of[(observation.seq, chosen)]] = 1
        return assignment

    def _record_wsat(self, result) -> None:
        """Book one local-search run into the metrics registry."""
        self.obs.counter("csp.wsat.solves").inc()
        self.obs.counter("csp.wsat.flips").inc(result.flips)
        self.obs.counter("csp.wsat.restarts").inc(result.restarts)
        self.obs.counter("csp.wsat.unsat_constraints").inc(
            result.unsat_constraints
        )
        self.obs.counter("csp.wsat.delta_evals").inc(result.delta_evals)

    def _solve_level(
        self, problem: SegmentationCsp, level: RelaxationLevel
    ) -> dict[str, object]:
        """Try one rung; return the assignment (or None) plus diagnostics."""
        with self.obs.span(
            "csp.level",
            level=level.name,
            vars=problem.system.num_vars,
            constraints=len(problem.system.constraints),
        ) as span:
            diag: dict[str, object] = {
                "level": level.name,
                "vars": problem.system.num_vars,
                "constraints": len(problem.system.constraints),
            }
            exact_eligible = (
                self.config.use_exact
                and problem.system.num_vars <= self.config.exact_var_limit
            )
            # Probe rungs that can actually be unsatisfiable before
            # spending the local-search flip budget: a rung the exact
            # solver proves unsat is one the search could never satisfy
            # (its result was always discarded), so skipping the search
            # there cannot change which rung wins or with what
            # assignment.  On the paper's dirty sites the proof takes
            # milliseconds where the doomed search takes seconds.  The
            # fully relaxed rung is satisfiable by construction (the
            # empty assignment meets every hard constraint), so a probe
            # there could never pay off.
            exact_result = None
            if exact_eligible and level is not RelaxationLevel.RELAXED:
                exact_result = self._run_exact(problem, diag, span)
                if exact_result is not None and not exact_result.satisfiable:
                    diag["wsat_satisfied"] = False
                    diag["wsat_skipped"] = True
                    span.attributes["wsat_satisfied"] = False
                    self.obs.counter("csp.wsat.skipped_unsat").inc()
                    return {"assignment": None, "diag": diag}

            # The fully relaxed rung optimizes a soft objective that
            # rarely reaches 0; a proven floor lets the search stop at
            # the optimum instead of spending its whole flip budget.
            floor = 0.0
            if exact_eligible and level is RelaxationLevel.RELAXED:
                floor = soft_floor(problem.system)
                self.obs.counter("csp.wsat.bound").inc(int(floor))
            wsat_result = WsatSolver(
                problem.system, self.config.wsat, clock=self.obs.clock
            ).solve(self._seed_assignment(problem), soft_floor=floor)
            self._record_wsat(wsat_result)
            span.attributes["wsat_satisfied"] = wsat_result.satisfied
            span.attributes["wsat_flips"] = wsat_result.flips
            if level is RelaxationLevel.RELAXED:
                if wsat_result.satisfied and wsat_result.best_soft_violation == floor:
                    self.obs.counter("csp.wsat.stopped_at_bound").inc()
                budget = self.config.wsat.max_flips * max(
                    1, self.config.wsat.max_restarts
                )
                diag["soft_floor"] = span.attributes["soft_floor"] = floor
                diag["flips_saved"] = span.attributes["flips_saved"] = (
                    budget - wsat_result.flips
                )
            diag["wsat_satisfied"] = wsat_result.satisfied
            diag["wsat_violation"] = wsat_result.best_violation
            diag["wsat_flips"] = wsat_result.flips
            diag["wsat_unsat_constraints"] = wsat_result.unsat_constraints
            if wsat_result.satisfied:
                return {"assignment": wsat_result.assignment, "diag": diag}

            if exact_eligible and "exact" not in diag:
                # The search failed on the one rung the probe skips
                # (fully relaxed): consult the exact solver now, as the
                # probe-less formulation always did.
                exact_result = self._run_exact(problem, diag, span)
            if exact_result is not None and exact_result.satisfiable:
                return {"assignment": exact_result.assignment, "diag": diag}
            return {"assignment": None, "diag": diag}

    def _run_exact(self, problem: SegmentationCsp, diag, span):
        """One exact solve, booked into counters and diagnostics.

        Returns ``None`` when the node budget ran out (recorded in
        ``diag`` as ``exact: budget_exceeded``).
        """
        self.obs.counter("csp.exact.solves").inc()
        try:
            exact_result = ExactSolver(
                problem.system, self.config.exact, clock=self.obs.clock
            ).solve()
        except SolverBudgetExceededError:
            diag["exact"] = "budget_exceeded"
            span.attributes["exact"] = "budget_exceeded"
            self.obs.counter("csp.exact.budget_exceeded").inc()
            return None
        self.obs.counter("csp.exact.nodes").inc(exact_result.nodes)
        self.obs.counter("csp.exact.backtracks").inc(exact_result.backtracks)
        diag["exact"] = (
            "satisfiable" if exact_result.satisfiable else "unsatisfiable"
        )
        diag["exact_nodes"] = exact_result.nodes
        diag["exact_backtracks"] = exact_result.backtracks
        span.attributes["exact"] = diag["exact"]
        return exact_result
