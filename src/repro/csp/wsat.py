"""A WSAT(OIP)-style local-search solver for pseudo-boolean systems.

The paper solves its constraints "using WSAT(OIP), an integer
optimization algorithm" (Walser, *Integer Optimization by Local
Search*, LNCS 1637).  WSAT(OIP) generalizes WalkSAT from clauses to
over-constrained integer programs: it repeatedly picks a violated
constraint and flips one of its variables, choosing greedily by score
(total weighted violation) with a noise probability of a random move,
a short tabu memory, and restarts.

This implementation follows that recipe:

* **score** — weighted sum of constraint violations, updated
  incrementally per flip;
* **move selection** — pick a violated constraint uniformly at random;
  with probability ``noise`` flip a random variable of it, otherwise
  flip the variable giving the best score delta, ties broken at
  random, skipping tabu variables unless they beat the best score seen
  (aspiration);
* **initialization** — a problem-aware seed assignment can be supplied
  (the segmenter seeds each extract into one random record of its
  ``D_i``, so uniqueness starts satisfied); otherwise all-zeros;
* **restarts** — independent reseeded tries, keeping the best
  assignment across tries.

The solver is deterministic given its ``seed``.

**Stopping at a proven optimum.**  ``solve(soft_floor=L)`` takes a
proven lower bound ``L`` on the soft violation of hard-feasible
assignments (:func:`repro.csp.exact.soft_floor`) and stops the moment
the best key reaches ``(0, L)``.  The best state is only ever replaced
on a *strict* improvement, and nothing improves on ``(0, L)``, so the
returned assignment is the one the full flip budget would have
returned; only ``flips``, ``restarts`` and ``delta_evals`` shrink.  The
default ``L = 0`` is the plain "everything satisfied" stop.

The inner loop is *delta-evaluating*: flipping a variable touches only
the constraints containing it, so the solver compiles, per variable,
the tuple of (constraint, coefficient, bound, relation, weight, ...)
rows it participates in, and both the greedy move scoring and the flip
application walk just those rows against the maintained ``lhs`` /
``violation`` arrays — never the whole system.  The compiled form
changes no decision: every score, tie-break and RNG draw is identical
to the reference formulation, so a given (system, config) pair yields
the same assignment it always did (``docs/performance.md`` explains
why that property is load-bearing for cache/golden-parity).  The
number of per-variable delta evaluations is reported as
``WsatResult.delta_evals`` and surfaced by the segmenter as the
``csp.wsat.delta_evals`` counter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.csp.constraints import ConstraintSystem, Relation
from repro.obs.clock import Clock, SystemClock

__all__ = ["WsatConfig", "WsatResult", "WsatSolver"]

#: Int codes the compiled inner loop branches on instead of the enum.
_REL_CODE = {Relation.LE: 0, Relation.GE: 1, Relation.EQ: 2}

#: Weight multiplier making hard violations dominate soft ones in the
#: flip score (lexicographic in spirit; see the module docstring).
_HARD_FACTOR = 1000.0


@dataclass(frozen=True)
class WsatConfig:
    """Local-search parameters.

    Attributes:
        max_flips: flip budget per restart.
        max_restarts: number of independent tries.
        noise: probability of a random (non-greedy) move.
        tabu_tenure: flips during which a just-flipped variable is
            tabu (0 disables tabu).
        seed: RNG seed; the solver is deterministic given it.
    """

    max_flips: int = 25_000
    max_restarts: int = 4
    noise: float = 0.12
    tabu_tenure: int = 8
    seed: int = 0


@dataclass
class WsatResult:
    """Outcome of a solve call.

    Attributes:
        assignment: best assignment found (always complete).
        satisfied: whether the best assignment satisfies every *hard*
            constraint (soft constraints are an optimization target
            only).
        best_violation: weighted hard violation of the best assignment.
        best_soft_violation: weighted soft violation of the best
            assignment.
        flips: total flips spent across restarts.
        restarts: restarts actually performed.
        unsat_constraints: hard constraints the best assignment still
            violates (0 when ``satisfied``) — the dirty-data signal
            the observability layer surfaces per relaxation rung.
        elapsed: clock seconds (wall time under the default clock).
        delta_evals: per-variable score-delta evaluations performed by
            greedy move selection (the hot-path effort measure behind
            the ``csp.wsat.delta_evals`` counter).
    """

    assignment: list[int]
    satisfied: bool
    best_violation: float
    best_soft_violation: float
    flips: int
    restarts: int
    elapsed: float
    unsat_constraints: int = 0
    delta_evals: int = 0


class WsatSolver:
    """Solve one :class:`ConstraintSystem` by WSAT(OIP)-style search.

    Args:
        system: the pseudo-boolean system to solve.
        config: search parameters.
        clock: time source for ``WsatResult.elapsed`` (injectable so
            traces built on top stay deterministic under test).
    """

    def __init__(
        self,
        system: ConstraintSystem,
        config: WsatConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.system = system
        self.config = config or WsatConfig()
        self.clock = clock or SystemClock()
        # Compiled representation.  Relations become int codes so the
        # inner loop branches on ints instead of enum identity.
        self._terms: list[tuple[tuple[int, int], ...]] = [
            constraint.terms for constraint in system.constraints
        ]
        self._bounds = [constraint.bound for constraint in system.constraints]
        self._relations = [
            constraint.relation for constraint in system.constraints
        ]
        self._rel_codes = [
            _REL_CODE[constraint.relation] for constraint in system.constraints
        ]
        self._weights = [constraint.weight for constraint in system.constraints]
        self._hard = [constraint.hard for constraint in system.constraints]
        # Hard constraints dominate soft ones in the flip score by a
        # factor large enough that no realistic soft mass overturns a
        # hard unit.
        self._factors = [
            _HARD_FACTOR if constraint.hard else 1.0
            for constraint in system.constraints
        ]
        self._var_constraints: list[list[tuple[int, int]]] = [
            [] for _ in range(system.num_vars)
        ]
        for constraint_id, terms in enumerate(self._terms):
            for coef, var in terms:
                self._var_constraints[var].append((constraint_id, coef))
        # Per-constraint variable tuples (move candidates), and per-var
        # occurrence rows carrying every per-constraint constant the
        # delta evaluation needs, so one tuple unpack replaces five
        # list lookups in the hottest loop.  Row order matches
        # ``_var_constraints`` (ascending constraint id), which fixes
        # the floating-point accumulation order of score deltas.
        self._cons_vars: list[tuple[int, ...]] = [
            tuple(var for _, var in terms) for terms in self._terms
        ]
        self._var_rows: list[tuple[tuple[int, int, int, int, float, float, bool], ...]] = [
            tuple(
                (
                    constraint_id,
                    coef,
                    self._bounds[constraint_id],
                    self._rel_codes[constraint_id],
                    self._weights[constraint_id],
                    self._factors[constraint_id],
                    self._hard[constraint_id],
                )
                for constraint_id, coef in pairs
            )
            for pairs in self._var_constraints
        ]
        self.delta_evals = 0

    # -- public API ------------------------------------------------------

    def solve(
        self, initial: list[int] | None = None, soft_floor: float = 0.0
    ) -> WsatResult:
        """Run the search; ``initial`` seeds the first restart.

        The best assignment is tracked lexicographically: first by hard
        violation, then by soft violation — a hard-feasible assignment
        with worse soft score always beats a hard-infeasible one.  The
        search stops once the best key is ``(0, soft_floor)``, which
        must be a proven lower bound (see the module docstring).
        """
        start_time = self.clock.now()
        rng = random.Random(self.config.seed)
        self.delta_evals = 0

        best_assignment: list[int] = (
            list(initial) if initial else [0] * self.system.num_vars
        )
        best_key = (float("inf"), float("inf"))
        stop_key = (0.0, soft_floor)
        total_flips = 0
        restarts_done = 0

        for restart in range(max(1, self.config.max_restarts)):
            restarts_done = restart + 1
            if restart == 0 and initial is not None:
                assignment = list(initial)
            else:
                assignment = self._random_assignment(rng)
            key, flips = self._search(assignment, rng, best_key, stop_key)
            total_flips += flips
            if key < best_key:
                best_key = key
                best_assignment = list(assignment)
            if best_key == stop_key:
                break

        return WsatResult(
            assignment=best_assignment,
            satisfied=best_key[0] == 0,
            best_violation=best_key[0],
            best_soft_violation=best_key[1],
            flips=total_flips,
            restarts=restarts_done,
            elapsed=self.clock.now() - start_time,
            unsat_constraints=self._unsat_count(best_assignment),
            delta_evals=self.delta_evals,
        )

    # -- internals -------------------------------------------------------

    def _unsat_count(self, assignment: list[int]) -> int:
        """Hard constraints violated by ``assignment``."""
        count = 0
        for constraint_id, terms in enumerate(self._terms):
            if not self._hard[constraint_id]:
                continue
            lhs = sum(coef * assignment[var] for coef, var in terms)
            if self._violation_of(constraint_id, lhs) > 0:
                count += 1
        return count

    def _random_assignment(self, rng: random.Random) -> list[int]:
        return [rng.randint(0, 1) for _ in range(self.system.num_vars)]

    def _violation_of(self, constraint_id: int, lhs: int) -> int:
        bound = self._bounds[constraint_id]
        relation = self._relations[constraint_id]
        if relation is Relation.LE:
            return lhs - bound if lhs > bound else 0
        if relation is Relation.GE:
            return bound - lhs if lhs < bound else 0
        return abs(lhs - bound)

    def _search(
        self,
        assignment: list[int],
        rng: random.Random,
        global_best: tuple[float, float],
        stop_key: tuple[float, float],
    ) -> tuple[tuple[float, float], int]:
        """One restart: local search from ``assignment`` (mutated in place).

        Returns ((best hard, best soft) violation reached, flips used).
        ``assignment`` holds the best state of this restart on return.
        The restart ends early once its best key equals ``stop_key``.

        The body is one flat loop over compiled per-variable rows: the
        greedy score delta and the flip application each delta-evaluate
        only the constraints containing the touched variable, with
        every per-constraint constant carried in the row tuple.  The
        decision sequence (scores, tie-breaks, RNG draws) is exactly
        the reference algorithm's.
        """
        num_constraints = len(self._terms)
        lhs = [0] * num_constraints
        for constraint_id, terms in enumerate(self._terms):
            lhs[constraint_id] = sum(coef * assignment[var] for coef, var in terms)

        violations = [
            self._violation_of(constraint_id, lhs[constraint_id])
            for constraint_id in range(num_constraints)
        ]
        hard_score = 0.0
        soft_score = 0.0
        for constraint_id in range(num_constraints):
            amount = self._weights[constraint_id] * violations[constraint_id]
            if self._hard[constraint_id]:
                hard_score += amount
            else:
                soft_score += amount

        # Violated-constraint pool with O(1) add/remove.
        unsat_list: list[int] = []
        unsat_pos: dict[int, int] = {}
        for constraint_id, amount in enumerate(violations):
            if amount > 0:
                unsat_pos[constraint_id] = len(unsat_list)
                unsat_list.append(constraint_id)

        best_key = (hard_score, soft_score)
        if best_key == stop_key:
            return best_key, 0
        last_flip = [-(10**9)] * self.system.num_vars
        best_state = list(assignment)
        tenure = self.config.tabu_tenure
        noise = self.config.noise
        hard_factor = _HARD_FACTOR
        cons_vars = self._cons_vars
        var_rows = self._var_rows
        randrange = rng.randrange
        rng_random = rng.random
        delta_evals = 0
        infinity = float("inf")

        for flip in range(self.config.max_flips):
            if not unsat_list:
                self.delta_evals += delta_evals
                return (0.0, 0.0), flip
            variables = cons_vars[unsat_list[randrange(len(unsat_list))]]
            if rng_random() < noise:
                chosen = variables[randrange(len(variables))]
            else:
                current_weighted = hard_score * hard_factor + soft_score
                best_global = min(best_key, global_best)
                aspiration = best_global[0] * hard_factor + best_global[1]
                best_vars: list[int] = []
                best_delta = infinity
                for var in variables:
                    direction = 1 - 2 * assignment[var]
                    delta = 0.0
                    for c, coef, bound, rel, weight, factor, _ in var_rows[var]:
                        new_lhs = lhs[c] + coef * direction
                        if rel == 0:  # LE
                            violation = new_lhs - bound if new_lhs > bound else 0
                        elif rel == 1:  # GE
                            violation = bound - new_lhs if new_lhs < bound else 0
                        else:  # EQ
                            violation = new_lhs - bound
                            if violation < 0:
                                violation = -violation
                        delta += weight * (violation - violations[c]) * factor
                    delta_evals += 1
                    if (
                        tenure > 0
                        and flip - last_flip[var] <= tenure
                        and current_weighted + delta >= aspiration
                    ):
                        continue
                    if delta < best_delta:
                        best_delta = delta
                        best_vars = [var]
                    elif delta == best_delta:
                        best_vars.append(var)
                if best_vars:
                    chosen = best_vars[randrange(len(best_vars))]
                else:
                    # Everything tabu without aspiration: random move.
                    chosen = variables[randrange(len(variables))]

            direction = 1 - 2 * assignment[chosen]
            assignment[chosen] ^= 1
            for c, coef, bound, rel, weight, _, is_hard in var_rows[chosen]:
                new_lhs = lhs[c] + coef * direction
                if rel == 0:  # LE
                    violation = new_lhs - bound if new_lhs > bound else 0
                elif rel == 1:  # GE
                    violation = bound - new_lhs if new_lhs < bound else 0
                else:  # EQ
                    violation = new_lhs - bound
                    if violation < 0:
                        violation = -violation
                lhs[c] = new_lhs
                old_violation = violations[c]
                if violation != old_violation:
                    change = weight * (violation - old_violation)
                    if is_hard:
                        hard_score += change
                    else:
                        soft_score += change
                    violations[c] = violation
                    if old_violation == 0:
                        unsat_pos[c] = len(unsat_list)
                        unsat_list.append(c)
                    elif violation == 0:
                        index = unsat_pos.pop(c)
                        mover = unsat_list[-1]
                        unsat_list[index] = mover
                        unsat_list.pop()
                        if mover != c:
                            unsat_pos[mover] = index

            last_flip[chosen] = flip
            if hard_score < best_key[0] or (
                hard_score == best_key[0] and soft_score < best_key[1]
            ):
                best_key = (hard_score, soft_score)
                best_state = list(assignment)
                if best_key == stop_key:
                    self.delta_evals += delta_evals
                    return best_key, flip + 1

        assignment[:] = best_state
        self.delta_evals += delta_evals
        return best_key, self.config.max_flips
