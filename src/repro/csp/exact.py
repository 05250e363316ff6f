"""Exact (systematic) solver for pseudo-boolean systems.

Complements the stochastic WSAT(OIP)-style search in two roles:

* **unsat proving** — the paper detects dirty data by WSAT failing to
  find a solution; the exact solver lets the pipeline distinguish
  "provably unsatisfiable, climb the relaxation ladder" from "the
  local search just got unlucky";
* **cross-checking** — property tests compare both solvers on random
  instances.

Algorithm: depth-first search with bounds-consistency propagation.
For every constraint we maintain the reachable interval
``[lhs_min, lhs_max]`` of its left-hand side given the current partial
assignment; a constraint whose interval cannot meet its bound prunes
the branch, and a free variable whose value would make some constraint
unmeetable is forced (unit propagation).  Search effort is capped by a
node budget.

A third role, **soft-floor proving** (:func:`soft_floor`), reuses the
same search to prove a lower bound on a system's soft violation, which
lets the local search stop as soon as it reaches that bound (see
``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import SolverBudgetExceededError
from repro.csp.constraints import ConstraintSystem, Relation
from repro.obs.clock import Clock, SystemClock

__all__ = ["ExactConfig", "ExactResult", "ExactSolver", "soft_floor"]

_UNSET = -1

#: Node budget for one whole :func:`soft_floor` sweep (all ``k`` tried).
_FLOOR_NODE_BUDGET = 2_000


@dataclass(frozen=True)
class ExactConfig:
    """Search limits for the exact solver.

    Attributes:
        node_budget: maximum number of search nodes (decisions plus
            propagations counted per decision) before giving up.
    """

    node_budget: int = 500_000


@dataclass
class ExactResult:
    """Outcome of an exact solve.

    Attributes:
        satisfiable: whether a solution exists.
        assignment: one satisfying assignment if satisfiable.
        nodes: search nodes explored.
        backtracks: decisions undone after both values failed — the
            "wasted work" measure the observability layer tracks.
        elapsed: clock seconds (wall time under the default clock).
    """

    satisfiable: bool
    assignment: list[int] | None
    nodes: int
    elapsed: float
    backtracks: int = 0


class _Trail:
    """Undo log for chronological backtracking."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[int] = []

    def mark(self) -> int:
        return len(self.entries)

    def push(self, var: int) -> None:
        self.entries.append(var)

    def undo_to(self, mark: int, solver: "ExactSolver") -> None:
        while len(self.entries) > mark:
            solver._unassign(self.entries.pop())


class ExactSolver:
    """Systematic DFS + propagation over a :class:`ConstraintSystem`."""

    def __init__(
        self,
        system: ConstraintSystem,
        config: ExactConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.system = system
        self.config = config or ExactConfig()
        self.clock = clock or SystemClock()
        # Satisfiability is defined by the hard constraints only; soft
        # constraints are an optimization target for the local search.
        self._constraints = system.hard_constraints
        self._assignment = [_UNSET] * system.num_vars
        self._var_constraints: list[list[tuple[int, int]]] = [
            [] for _ in range(system.num_vars)
        ]
        for constraint_id, constraint in enumerate(self._constraints):
            for coef, var in constraint.terms:
                self._var_constraints[var].append((constraint_id, coef))
        # Reachable interval of each constraint's lhs.
        self._lhs_min = [0] * len(self._constraints)
        self._lhs_max = [0] * len(self._constraints)
        for constraint_id, constraint in enumerate(self._constraints):
            low = high = 0
            for coef, _ in constraint.terms:
                if coef > 0:
                    high += coef
                else:
                    low += coef
            self._lhs_min[constraint_id] = low
            self._lhs_max[constraint_id] = high
        self._nodes = 0
        self._backtracks = 0

    # -- public API ------------------------------------------------------

    def solve(self) -> ExactResult:
        """Search for a satisfying assignment or prove none exists.

        Raises:
            SolverBudgetExceededError: the node budget ran out before
                the search finished.
        """
        start_time = self.clock.now()
        self._nodes = 0
        self._backtracks = 0
        trail = _Trail()

        # Root propagation: conflicts here mean trivially unsat.
        if not self._propagate(trail):
            return ExactResult(
                satisfiable=False,
                assignment=None,
                nodes=self._nodes,
                elapsed=self.clock.now() - start_time,
            )
        found = self._dfs(trail)
        result = ExactResult(
            satisfiable=found,
            assignment=list(self._assignment) if found else None,
            nodes=self._nodes,
            elapsed=self.clock.now() - start_time,
            backtracks=self._backtracks,
        )
        trail.undo_to(0, self)
        return result

    def count_solutions(self, limit: int = 1_000) -> int:
        """Count satisfying assignments, stopping at ``limit``.

        Useful for verifying that a segmentation problem's constraints
        pin down a *unique* assignment (the paper's clean-data case).
        Unconstrained variables multiply the count combinatorially, so
        the limit guards against degenerate blow-ups.

        Raises:
            SolverBudgetExceededError: the node budget ran out.
        """
        self._nodes = 0
        trail = _Trail()
        if not self._propagate(trail):
            trail.undo_to(0, self)
            return 0
        count = self._count_dfs(trail, limit)
        trail.undo_to(0, self)
        return count

    def _count_dfs(self, trail: _Trail, limit: int) -> int:
        self._nodes += 1
        if self._nodes > self.config.node_budget:
            raise SolverBudgetExceededError(
                f"exact solver exceeded {self.config.node_budget} nodes"
            )
        var = self._pick_branch_var()
        if var is None:
            return 1
        total = 0
        for value in (1, 0):
            mark = trail.mark()
            if self._assign(var, value, trail) and self._propagate(trail):
                total += self._count_dfs(trail, limit - total)
            trail.undo_to(mark, self)
            if total >= limit:
                return limit
        return total

    # -- assignment bookkeeping -------------------------------------------

    def _assign(self, var: int, value: int, trail: _Trail) -> bool:
        """Assign and update intervals; False on immediate conflict.

        Every interval is updated even after a conflict shows, because
        :meth:`_unassign` reverts them all: stopping early would leave
        the later intervals too wide once undone, and a too-wide
        interval lets a violated constraint pass as satisfied.
        """
        self._assignment[var] = value
        trail.push(var)
        feasible = True
        for constraint_id, coef in self._var_constraints[var]:
            # The variable's contribution collapses from its range to
            # coef*value.
            if coef > 0:
                if value:
                    self._lhs_min[constraint_id] += coef
                else:
                    self._lhs_max[constraint_id] -= coef
            else:
                if value:
                    self._lhs_max[constraint_id] += coef
                else:
                    self._lhs_min[constraint_id] -= coef
            if feasible and not self._interval_feasible(constraint_id):
                feasible = False
        return feasible

    def _unassign(self, var: int) -> None:
        value = self._assignment[var]
        self._assignment[var] = _UNSET
        for constraint_id, coef in self._var_constraints[var]:
            if coef > 0:
                if value:
                    self._lhs_min[constraint_id] -= coef
                else:
                    self._lhs_max[constraint_id] += coef
            else:
                if value:
                    self._lhs_max[constraint_id] -= coef
                else:
                    self._lhs_min[constraint_id] += coef

    def _interval_feasible(self, constraint_id: int) -> bool:
        constraint = self._constraints[constraint_id]
        low = self._lhs_min[constraint_id]
        high = self._lhs_max[constraint_id]
        if constraint.relation is Relation.LE:
            return low <= constraint.bound
        if constraint.relation is Relation.GE:
            return high >= constraint.bound
        return low <= constraint.bound <= high

    # -- propagation -------------------------------------------------------

    def _propagate(self, trail: _Trail) -> bool:
        """Fixed-point unit propagation; False on conflict."""
        changed = True
        while changed:
            changed = False
            for constraint_id, constraint in enumerate(self._constraints):
                if not self._interval_feasible(constraint_id):
                    return False
                forced = self._forced_literals(constraint_id)
                for var, value in forced:
                    if self._assignment[var] == _UNSET:
                        if not self._assign(var, value, trail):
                            return False
                        changed = True
                    elif self._assignment[var] != value:
                        return False
        return True

    def _forced_literals(self, constraint_id: int) -> list[tuple[int, int]]:
        """Free variables whose value is forced by this constraint.

        A free variable is forced to ``v`` when setting it to ``1 - v``
        would push the reachable interval outside the bound.
        """
        constraint = self._constraints[constraint_id]
        low = self._lhs_min[constraint_id]
        high = self._lhs_max[constraint_id]
        bound = constraint.bound
        relation = constraint.relation
        forced: list[tuple[int, int]] = []
        for coef, var in constraint.terms:
            if self._assignment[var] != _UNSET:
                continue
            # Interval if var = 1 and if var = 0.
            if coef > 0:
                low_if_1, high_if_1 = low + coef, high
                low_if_0, high_if_0 = low, high - coef
            else:
                low_if_1, high_if_1 = low, high + coef
                low_if_0, high_if_0 = low - coef, high
            ok_1 = _feasible(relation, bound, low_if_1, high_if_1)
            ok_0 = _feasible(relation, bound, low_if_0, high_if_0)
            if ok_1 and not ok_0:
                forced.append((var, 1))
            elif ok_0 and not ok_1:
                forced.append((var, 0))
        return forced

    # -- search -------------------------------------------------------------

    def _dfs(self, trail: _Trail) -> bool:
        self._nodes += 1
        if self._nodes > self.config.node_budget:
            raise SolverBudgetExceededError(
                f"exact solver exceeded {self.config.node_budget} nodes"
            )
        var = self._pick_branch_var()
        if var is None:
            return True  # all assigned, propagation kept feasibility
        for value in (1, 0):
            mark = trail.mark()
            if self._assign(var, value, trail) and self._propagate(trail):
                if self._dfs(trail):
                    return True
            trail.undo_to(mark, self)
        self._backtracks += 1
        return False

    def _pick_branch_var(self) -> int | None:
        """Branch on the free variable in the tightest constraint."""
        best_var: int | None = None
        best_slack = float("inf")
        for constraint_id, constraint in enumerate(self._constraints):
            free = [
                var
                for _, var in constraint.terms
                if self._assignment[var] == _UNSET
            ]
            if not free:
                continue
            if constraint.relation is Relation.LE:
                slack = constraint.bound - self._lhs_min[constraint_id]
            elif constraint.relation is Relation.GE:
                slack = self._lhs_max[constraint_id] - constraint.bound
            else:
                slack = min(
                    constraint.bound - self._lhs_min[constraint_id],
                    self._lhs_max[constraint_id] - constraint.bound,
                )
            slack = slack + len(free) * 0.01
            if slack < best_slack:
                best_slack = slack
                best_var = free[0]
        if best_var is not None:
            return best_var
        # No constraint mentions a free variable; any free var is
        # unconstrained — assign the first, if any.
        for var, value in enumerate(self._assignment):
            if value == _UNSET:
                return var
        return None


def soft_floor(system: ConstraintSystem) -> float:
    """A proven lower bound on ``system``'s soft violation.

    The bound covers every assignment that satisfies the hard
    constraints.  It applies when all weights are 1 and every soft
    constraint is an assign-me constraint (positive unit coefficients,
    ``>= 1``), the shape :func:`repro.csp.relaxation.encode_at_level`
    emits.  The soft violation is then the number of violated soft
    constraints, and both local-search scores are exact integer counts.
    For any other system the function returns the trivial bound 0.0.

    Each soft constraint ``j`` becomes the hard constraint
    ``terms_j + u_j >= 1`` over a fresh indicator ``u_j``.  For
    ``k = 0, 1, ...`` the exact solver then decides the hard constraints
    plus ``sum(u) <= k``; the first satisfiable ``k`` is the optimum.
    When the sweep's node budget runs out while testing ``k``, ``k`` is
    returned: every smaller value was already proven infeasible.
    """
    soft = [c for c in system.constraints if not c.hard]
    shaped = all(c.weight == 1 for c in system.constraints) and all(
        c.relation is Relation.GE
        and c.bound == 1
        and all(coef == 1 for coef, _ in c.terms)
        for c in soft
    )
    if not soft or not shaped:
        return 0.0
    base = system.num_vars
    indicators = [(1, base + j) for j in range(len(soft))]
    covered = ConstraintSystem(num_vars=base + len(soft))
    covered.constraints.extend(system.hard_constraints)
    for indicator, constraint in zip(indicators, soft):
        covered.add([*constraint.terms, indicator], Relation.GE, 1)
    remaining = _FLOOR_NODE_BUDGET
    for k in range(len(soft) + 1):
        capped = ConstraintSystem(
            num_vars=covered.num_vars, constraints=list(covered.constraints)
        )
        capped.add(indicators, Relation.LE, k)
        try:
            result = ExactSolver(capped, ExactConfig(node_budget=remaining)).solve()
        except SolverBudgetExceededError:
            return float(k)
        if result.satisfiable:
            return float(k)
        remaining -= result.nodes
    # The hard constraints alone are infeasible: nothing to bound.
    return 0.0


def _feasible(relation: Relation, bound: int, low: int, high: int) -> bool:
    if relation is Relation.LE:
        return low <= bound
    if relation is Relation.GE:
        return high >= bound
    return low <= bound <= high
