"""Tests for the WSAT(OIP)-style and exact solvers, including
cross-checking property tests on random planted instances."""

from __future__ import annotations

import dataclasses
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SolverBudgetExceededError
from repro.csp.constraints import ConstraintSystem, Relation
from repro.csp import exact
from repro.csp.exact import ExactConfig, ExactSolver, soft_floor
from repro.csp.wsat import WsatConfig, WsatSolver


def exactly_one_system(groups, num_vars):
    system = ConstraintSystem(num_vars=num_vars)
    for group in groups:
        system.add([(1, v) for v in group], Relation.EQ, 1)
    return system


def brute_force_satisfiable(system):
    for bits in itertools.product((0, 1), repeat=system.num_vars):
        if system.is_satisfied(list(bits)):
            return True
    return False


@st.composite
def random_systems(draw):
    """Small random pseudo-boolean systems (sat and unsat mixed)."""
    num_vars = draw(st.integers(2, 6))
    count = draw(st.integers(1, 6))
    system = ConstraintSystem(num_vars=num_vars)
    for _ in range(count):
        size = draw(st.integers(1, min(3, num_vars)))
        variables = draw(
            st.lists(
                st.integers(0, num_vars - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        coefs = draw(
            st.lists(st.sampled_from([1, 1, 1, -1]), min_size=size, max_size=size)
        )
        relation = draw(st.sampled_from(list(Relation)))
        bound = draw(st.integers(-1, 2))
        system.add(list(zip(coefs, variables)), relation, bound)
    return system


def brute_force_soft_optimum(system):
    """Least soft violation over hard-feasible assignments (None if none)."""
    best = None
    for bits in itertools.product((0, 1), repeat=system.num_vars):
        assignment = list(bits)
        if system.is_satisfied(assignment):
            soft = system.total_violation(assignment) - system.hard_violation(
                assignment
            )
            best = soft if best is None else min(best, soft)
    return best


@st.composite
def relaxed_systems(draw):
    """Small systems shaped like the fully relaxed rung.

    Variables are grouped into extracts; each extract gets a hard
    ``<= 1`` uniqueness constraint and a soft unit ``>= 1`` assign-me
    constraint, and a few extra hard ``LE``/``EQ`` constraints play the
    position and ordering constraints.
    """
    num_vars = draw(st.integers(2, 12))
    cuts = sorted(draw(st.sets(st.integers(1, num_vars - 1), max_size=num_vars - 1)))
    bounds = [0, *cuts, num_vars]
    system = ConstraintSystem(num_vars=num_vars)
    groups = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    for group in groups:
        system.add([(1, v) for v in group], Relation.LE, 1)
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(
            st.lists(st.integers(0, num_vars - 1), min_size=1, max_size=3, unique=True)
        )
        relation = draw(st.sampled_from([Relation.LE, Relation.EQ]))
        bound = draw(st.integers(0, 1))
        system.add([(1, v) for v in variables], relation, bound)
    for group in groups:
        system.add([(1, v) for v in group], Relation.GE, 1, hard=False)
    return system


class TestWsat:
    def test_solves_exactly_one(self):
        system = exactly_one_system([[0, 1, 2], [2, 3], [3, 4]], 5)
        result = WsatSolver(system).solve()
        assert result.satisfied
        assert system.is_satisfied(result.assignment)

    def test_reports_unsat_as_nonzero_violation(self):
        system = ConstraintSystem(num_vars=1)
        system.add([(1, 0)], Relation.EQ, 1)
        system.add([(1, 0)], Relation.EQ, 0)
        result = WsatSolver(system, WsatConfig(max_flips=500, max_restarts=2)).solve()
        assert not result.satisfied
        assert result.best_violation >= 1

    def test_deterministic_given_seed(self):
        system = exactly_one_system([[0, 1], [1, 2], [2, 3]], 4)
        first = WsatSolver(system, WsatConfig(seed=7)).solve()
        second = WsatSolver(system, WsatConfig(seed=7)).solve()
        assert first.assignment == second.assignment

    def test_initial_assignment_used(self):
        system = exactly_one_system([[0, 1]], 2)
        result = WsatSolver(system).solve(initial=[1, 0])
        assert result.satisfied
        assert result.flips == 0

    def test_soft_constraints_optimized(self):
        # Hard: at most one of {0,1}. Soft: both should be 1.
        # Optimum: exactly one set (soft violation 1, not 2).
        system = ConstraintSystem(num_vars=2)
        system.add([(1, 0), (1, 1)], Relation.LE, 1)
        system.add([(1, 0)], Relation.GE, 1, hard=False)
        system.add([(1, 1)], Relation.GE, 1, hard=False)
        result = WsatSolver(system).solve()
        assert result.satisfied
        assert sum(result.assignment) == 1
        assert result.best_soft_violation == 1

    def test_hard_beats_soft_lexicographically(self):
        # Satisfying the soft constraint would violate the hard one.
        system = ConstraintSystem(num_vars=1)
        system.add([(1, 0)], Relation.EQ, 0, hard=True)
        system.add([(1, 0)], Relation.GE, 1, hard=False, weight=100.0)
        result = WsatSolver(system).solve()
        assert result.satisfied
        assert result.assignment == [0]

    @settings(deadline=None, max_examples=40)
    @given(random_systems())
    def test_wsat_never_claims_false_sat(self, system):
        result = WsatSolver(
            system, WsatConfig(max_flips=2000, max_restarts=2)
        ).solve()
        if result.satisfied:
            assert system.is_satisfied(result.assignment)


    def test_stops_at_proven_floor(self):
        # At most one of {0,1}, both wanted: the optimum misses one.
        system = ConstraintSystem(num_vars=2)
        system.add([(1, 0), (1, 1)], Relation.LE, 1)
        system.add([(1, 0)], Relation.GE, 1, hard=False)
        system.add([(1, 1)], Relation.GE, 1, hard=False)
        config = WsatConfig(max_flips=500, max_restarts=3)
        full = WsatSolver(system, config).solve()
        stopped = WsatSolver(system, config).solve(soft_floor=soft_floor(system))
        assert full.flips == 1500
        assert stopped.flips < 10 and stopped.restarts == 1
        assert stopped.assignment == full.assignment

    def test_seed_at_floor_takes_no_flips(self):
        system = ConstraintSystem(num_vars=2)
        system.add([(1, 0), (1, 1)], Relation.LE, 1)
        system.add([(1, 0)], Relation.GE, 1, hard=False)
        system.add([(1, 1)], Relation.GE, 1, hard=False)
        result = WsatSolver(system).solve([0, 1], soft_floor=1.0)
        assert result.flips == 0
        assert result.assignment == [0, 1]

    @settings(deadline=None, max_examples=60)
    @given(relaxed_systems(), st.integers(0, 1000), st.data())
    def test_stop_at_floor_changes_no_result(self, system, seed, data):
        """Any proven lower bound leaves the search's answer untouched."""
        optimum = brute_force_soft_optimum(system)
        floor = data.draw(st.integers(0, int(optimum or 0)))
        initial = data.draw(
            st.none()
            | st.lists(
                st.integers(0, 1), min_size=system.num_vars, max_size=system.num_vars
            )
        )
        config = WsatConfig(max_flips=300, max_restarts=3, seed=seed)
        full = WsatSolver(system, config).solve(initial)
        for bound in (float(floor), soft_floor(system)):
            stopped = WsatSolver(system, config).solve(initial, soft_floor=bound)
            assert stopped.assignment == full.assignment
            assert stopped.best_violation == full.best_violation
            assert stopped.best_soft_violation == full.best_soft_violation
            assert stopped.flips <= full.flips


class TestSoftFloor:
    @settings(deadline=None, max_examples=80)
    @given(relaxed_systems())
    def test_floor_is_the_optimum(self, system):
        optimum = brute_force_soft_optimum(system)
        with mock.patch.object(exact, "_FLOOR_NODE_BUDGET", 10**6):
            floor = soft_floor(system)
        if optimum is None:
            assert floor == 0.0
        else:
            assert floor == optimum

    @settings(deadline=None, max_examples=60)
    @given(relaxed_systems(), st.integers(0, 8))
    def test_exhausted_budget_still_bounds(self, system, budget):
        optimum = brute_force_soft_optimum(system)
        assert soft_floor(system) <= (optimum if optimum is not None else 0.0)
        with mock.patch.object(exact, "_FLOOR_NODE_BUDGET", budget):
            floor = soft_floor(system)
        assert floor <= (optimum if optimum is not None else 0.0)

    @settings(deadline=None, max_examples=60)
    @given(relaxed_systems(), st.data())
    def test_other_soft_shapes_get_no_floor(self, system, data):
        soft = [c for c in system.constraints if not c.hard]
        index = system.constraints.index(data.draw(st.sampled_from(soft)))
        original = system.constraints[index]
        change = data.draw(
            st.sampled_from(
                [
                    {"weight": 2.0},
                    {"relation": Relation.LE},
                    {"relation": Relation.EQ},
                    {"bound": 2},
                    {"terms": ((2, original.terms[0][1]), *original.terms[1:])},
                    {"terms": ((-1, original.terms[0][1]), *original.terms[1:])},
                ]
            )
        )
        system.constraints[index] = dataclasses.replace(original, **change)
        assert soft_floor(system) == 0.0

    def test_no_soft_constraints(self):
        system = exactly_one_system([[0, 1]], 2)
        assert soft_floor(system) == 0.0

    def test_weighted_hard_constraint_gets_no_floor(self):
        system = ConstraintSystem(num_vars=2)
        system.add([(1, 0), (1, 1)], Relation.LE, 1, weight=0.5)
        system.add([(1, 0)], Relation.GE, 1, hard=False)
        system.add([(1, 1)], Relation.GE, 1, hard=False)
        assert soft_floor(system) == 0.0


class TestExact:
    def test_sat_instance(self):
        system = exactly_one_system([[0, 1, 2], [2, 3]], 4)
        result = ExactSolver(system).solve()
        assert result.satisfiable
        assert system.is_satisfied(result.assignment)

    def test_unsat_instance(self):
        system = ConstraintSystem(num_vars=2)
        system.add([(1, 0), (1, 1)], Relation.LE, 1)
        system.add([(1, 0)], Relation.GE, 1)
        system.add([(1, 1)], Relation.GE, 1)
        result = ExactSolver(system).solve()
        assert not result.satisfiable
        assert result.assignment is None

    def test_root_propagation_conflict(self):
        system = ConstraintSystem(num_vars=1)
        system.add([(1, 0)], Relation.EQ, 1)
        system.add([(1, 0)], Relation.EQ, 0)
        result = ExactSolver(system).solve()
        assert not result.satisfiable

    def test_soft_constraints_ignored(self):
        system = ConstraintSystem(num_vars=1)
        system.add([(1, 0)], Relation.EQ, 0, hard=True)
        system.add([(1, 0)], Relation.EQ, 1, hard=False)
        result = ExactSolver(system).solve()
        assert result.satisfiable
        assert result.assignment == [0]

    def test_budget_exceeded_raises(self):
        # A dense unconstrained-but-large search with a tiny budget.
        system = ConstraintSystem(num_vars=30)
        for v in range(0, 28, 2):
            system.add([(1, v), (1, v + 1), (-1, (v + 2) % 30)], Relation.LE, 1)
        with pytest.raises(SolverBudgetExceededError):
            ExactSolver(system, ExactConfig(node_budget=3)).solve()

    def test_conflict_leaves_no_stale_intervals(self):
        # Trying x0 = 1 forces x1 = 1, which breaks x0 + x1 <= 1 before
        # x0 == x1 has seen x1.  Undoing that trial must restore every
        # interval, or x0 == x1 later passes with x0 = 0, x1 = 1.
        system = ConstraintSystem(num_vars=2)
        system.add([(-1, 0)], Relation.GE, -1)
        system.add([(-1, 0), (1, 1)], Relation.GE, 0)
        system.add([(1, 0), (1, 1)], Relation.LE, 1)
        system.add([(-1, 1), (1, 0)], Relation.EQ, 0)
        result = ExactSolver(system).solve()
        assert result.satisfiable
        assert result.assignment == [0, 0]

    def test_free_variables_get_values(self):
        system = ConstraintSystem(num_vars=3)
        system.add([(1, 0)], Relation.EQ, 1)
        result = ExactSolver(system).solve()
        assert result.satisfiable
        assert all(value in (0, 1) for value in result.assignment)

    @settings(deadline=None, max_examples=60)
    @given(random_systems())
    def test_exact_agrees_with_brute_force(self, system):
        result = ExactSolver(system, ExactConfig(node_budget=50_000)).solve()
        assert result.satisfiable == brute_force_satisfiable(system)
        if result.satisfiable:
            assert system.is_satisfied(result.assignment)


class TestCrossCheck:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_planted_exactly_one_instances(self, seed):
        """Both solvers solve partitioned exactly-one instances."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 14)
        variables = list(range(num_vars))
        rng.shuffle(variables)
        groups = []
        while variables:
            size = min(len(variables), rng.randint(1, 4))
            groups.append([variables.pop() for _ in range(size)])
        system = exactly_one_system(groups, num_vars)

        wsat = WsatSolver(system, WsatConfig(seed=seed)).solve()
        exact = ExactSolver(system).solve()
        assert exact.satisfiable
        assert wsat.satisfied
        assert system.is_satisfied(wsat.assignment)

    @settings(deadline=None, max_examples=30)
    @given(random_systems())
    def test_wsat_sat_implies_exact_sat(self, system):
        wsat = WsatSolver(
            system, WsatConfig(max_flips=3000, max_restarts=2)
        ).solve()
        if wsat.satisfied:
            exact = ExactSolver(system, ExactConfig(node_budget=50_000)).solve()
            assert exact.satisfiable
