"""BDD manager: canonicity, boolean algebra, counting, quantification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import FALSE, TRUE, BddManager


@pytest.fixture
def mgr() -> BddManager:
    return BddManager(8)


class TestNodeConstruction:
    def test_terminals_are_fixed(self, mgr):
        assert FALSE == 0
        assert TRUE == 1

    def test_var_and_negation(self, mgr):
        v = mgr.var(3)
        nv = mgr.nvar(3)
        assert mgr.apply_not(v) == nv
        assert mgr.apply_not(nv) == v

    def test_var_out_of_range(self, mgr):
        with pytest.raises(ValueError):
            mgr.var(8)
        with pytest.raises(ValueError):
            mgr.nvar(-1)

    def test_hash_consing_shares_nodes(self, mgr):
        a = mgr.apply_and(mgr.var(0), mgr.var(1))
        b = mgr.apply_and(mgr.var(0), mgr.var(1))
        assert a == b

    def test_redundant_node_collapses(self, mgr):
        # ite(x, y, y) must not create a node for x.
        y = mgr.var(1)
        assert mgr.ite(mgr.var(0), y, y) == y


class TestBooleanAlgebra:
    def test_and_or_identities(self, mgr):
        x = mgr.var(0)
        assert mgr.apply_and(x, TRUE) == x
        assert mgr.apply_and(x, FALSE) == FALSE
        assert mgr.apply_or(x, FALSE) == x
        assert mgr.apply_or(x, TRUE) == TRUE

    def test_complement(self, mgr):
        x = mgr.var(2)
        assert mgr.apply_and(x, mgr.apply_not(x)) == FALSE
        assert mgr.apply_or(x, mgr.apply_not(x)) == TRUE

    def test_xor(self, mgr):
        x, y = mgr.var(0), mgr.var(1)
        xor = mgr.apply_xor(x, y)
        manual = mgr.apply_or(
            mgr.apply_diff(x, y), mgr.apply_diff(y, x)
        )
        assert xor == manual

    def test_implies_subset(self, mgr):
        x, y = mgr.var(0), mgr.var(1)
        both = mgr.apply_and(x, y)
        assert mgr.implies(both, x)
        assert not mgr.implies(x, both)

    def test_overlaps(self, mgr):
        x, y = mgr.var(0), mgr.var(1)
        assert mgr.overlaps(x, y)
        assert not mgr.overlaps(x, mgr.apply_not(x))


class TestCounting:
    def test_count_terminals(self, mgr):
        assert mgr.count(FALSE) == 0
        assert mgr.count(TRUE) == 2**8

    def test_count_single_var(self, mgr):
        assert mgr.count(mgr.var(0)) == 2**7
        assert mgr.count(mgr.var(7)) == 2**7

    def test_count_conjunction(self, mgr):
        node = mgr.apply_and(mgr.var(0), mgr.var(5))
        assert mgr.count(node) == 2**6

    def test_count_disjoint_union_adds(self, mgr):
        x = mgr.var(0)
        a = mgr.apply_and(x, mgr.var(1))
        b = mgr.apply_and(mgr.apply_not(x), mgr.var(2))
        assert mgr.count(mgr.apply_or(a, b)) == mgr.count(a) + mgr.count(b)

    def test_zero_var_manager(self):
        mgr = BddManager(0)
        assert mgr.count(TRUE) == 1
        assert mgr.count(FALSE) == 0


class TestPickAndCubes:
    def test_pick_one_none_for_false(self, mgr):
        assert mgr.pick_one(FALSE) is None

    def test_pick_one_satisfies(self, mgr):
        node = mgr.apply_and(mgr.var(1), mgr.nvar(4))
        assignment = mgr.pick_one(node)
        assert assignment[1] is True
        assert assignment[4] is False

    def test_iter_cubes_cover_function(self, mgr):
        node = mgr.apply_or(mgr.var(0), mgr.var(3))
        rebuilt = FALSE
        for cube in mgr.iter_cubes(node):
            rebuilt = mgr.apply_or(rebuilt, mgr.cube(cube))
        assert rebuilt == node

    def test_cube_builds_conjunction(self, mgr):
        node = mgr.cube({0: True, 3: False, 6: True})
        expected = mgr.apply_and(
            mgr.apply_and(mgr.var(0), mgr.nvar(3)), mgr.var(6)
        )
        assert node == expected


class TestExists:
    def test_exists_removes_variable(self, mgr):
        node = mgr.apply_and(mgr.var(0), mgr.var(1))
        projected = mgr.exists(node, frozenset({0}))
        assert projected == mgr.var(1)

    def test_exists_of_tautology_over_var(self, mgr):
        x = mgr.var(0)
        node = mgr.apply_or(x, mgr.apply_not(x))
        assert mgr.exists(node, frozenset({0})) == TRUE

    def test_exists_count_doubles(self, mgr):
        node = mgr.apply_and(mgr.var(0), mgr.var(1))
        projected = mgr.exists(node, frozenset({0}))
        assert mgr.count(projected) == 2 * mgr.count(node)


@st.composite
def boolean_expr(draw, num_vars=5, depth=3):
    """Random boolean function as (python eval lambda, bdd node builder)."""
    if depth == 0 or draw(st.booleans()):
        index = draw(st.integers(0, num_vars - 1))
        return ("var", index)
    op = draw(st.sampled_from(["and", "or", "not"]))
    if op == "not":
        return ("not", draw(boolean_expr(num_vars=num_vars, depth=depth - 1)))
    left = draw(boolean_expr(num_vars=num_vars, depth=depth - 1))
    right = draw(boolean_expr(num_vars=num_vars, depth=depth - 1))
    return (op, left, right)


def _to_bdd(mgr: BddManager, expr) -> int:
    if expr[0] == "var":
        return mgr.var(expr[1])
    if expr[0] == "not":
        return mgr.apply_not(_to_bdd(mgr, expr[1]))
    left = _to_bdd(mgr, expr[1])
    right = _to_bdd(mgr, expr[2])
    return mgr.apply_and(left, right) if expr[0] == "and" else mgr.apply_or(left, right)


def _eval(expr, assignment) -> bool:
    if expr[0] == "var":
        return assignment[expr[1]]
    if expr[0] == "not":
        return not _eval(expr[1], assignment)
    left = _eval(expr[1], assignment)
    right = _eval(expr[2], assignment)
    return (left and right) if expr[0] == "and" else (left or right)


class TestPropertyBased:
    @given(boolean_expr())
    @settings(max_examples=150, deadline=None)
    def test_bdd_agrees_with_truth_table(self, expr):
        mgr = BddManager(5)
        node = _to_bdd(mgr, expr)
        count = 0
        for bits in range(32):
            assignment = [(bits >> (4 - i)) & 1 == 1 for i in range(5)]
            if _eval(expr, assignment):
                count += 1
        assert mgr.count(node) == count

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_de_morgan(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        lhs = mgr.apply_not(mgr.apply_and(a, b))
        rhs = mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b))
        assert lhs == rhs

    @given(boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_double_negation(self, expr):
        mgr = BddManager(5)
        node = _to_bdd(mgr, expr)
        assert mgr.apply_not(mgr.apply_not(node)) == node

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_diff_truth_table(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        diff = mgr.apply_diff(a, b)
        assert diff == mgr.apply_and(a, mgr.apply_not(b))
        count = 0
        for bits in range(32):
            assignment = [(bits >> (4 - i)) & 1 == 1 for i in range(5)]
            if _eval(e1, assignment) and not _eval(e2, assignment):
                count += 1
        assert mgr.count(diff) == count

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_xor_truth_table(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        xor = mgr.apply_xor(a, b)
        assert xor == mgr.apply_or(
            mgr.apply_diff(a, b), mgr.apply_diff(b, a)
        )
        count = 0
        for bits in range(32):
            assignment = [(bits >> (4 - i)) & 1 == 1 for i in range(5)]
            if _eval(e1, assignment) != _eval(e2, assignment):
                count += 1
        assert mgr.count(xor) == count

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=150, deadline=None)
    def test_implies_is_an_empty_difference(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        for f, g in ((a, b), (b, a), (a, mgr.apply_or(a, b))):
            implied = mgr.implies(f, g)
            assert implied == (mgr.apply_diff(f, g) == FALSE)

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_implies_allocates_nothing(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        nodes, ops = mgr.node_count(), mgr.stats.total_ops()
        mgr.implies(a, b)
        mgr.implies(b, a)
        assert (mgr.node_count(), mgr.stats.total_ops()) == (nodes, ops)
        assert not mgr._diff_cache

    @given(boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_evaluate_agrees_with_truth_table(self, expr):
        mgr = BddManager(5)
        node = _to_bdd(mgr, expr)
        nodes = mgr.node_count()
        for bits in range(32):
            assignment = [(bits >> (4 - i)) & 1 == 1 for i in range(5)]
            # Variables the point leaves out are False.
            point = {i: True for i, bit in enumerate(assignment) if bit}
            assert mgr.evaluate(node, point) == _eval(expr, assignment)
        assert mgr.node_count() == nodes

    @given(boolean_expr(), boolean_expr())
    @settings(max_examples=100, deadline=None)
    def test_commutative_caches_normalize(self, e1, e2):
        mgr = BddManager(5)
        a, b = _to_bdd(mgr, e1), _to_bdd(mgr, e2)
        assert mgr.apply_and(a, b) == mgr.apply_and(b, a)
        assert mgr.apply_or(a, b) == mgr.apply_or(b, a)
        assert mgr.apply_xor(a, b) == mgr.apply_xor(b, a)


class TestEngineInternals:
    def test_exists_memo_reused_across_calls(self, mgr):
        f = mgr.apply_and(mgr.var(0), mgr.apply_or(mgr.var(1), mgr.var(2)))
        variables = frozenset({1, 2})
        first = mgr.exists(f, variables)
        assert (f, variables) in mgr._exists_cache
        misses_after_first = mgr.stats.cache_misses
        assert mgr.exists(f, variables) == first
        # Second call is answered from the manager-level memo: no new
        # recursion steps at all.
        assert mgr.stats.cache_misses == misses_after_first

    def test_not_involution_memo_is_constant_time(self, mgr):
        f = mgr.apply_or(
            mgr.apply_and(mgr.var(0), mgr.var(1)),
            mgr.apply_and(mgr.var(2), mgr.nvar(3)),
        )
        nf = mgr.apply_not(f)
        misses_before = mgr.stats.cache_misses
        # Both directions of the involution were memoized by the first walk.
        assert mgr.apply_not(nf) == f
        assert mgr.apply_not(f) == nf
        assert mgr.stats.cache_misses == misses_before

    def test_deep_bdds_do_not_recurse(self):
        """Kernels must survive operand depth far beyond Python's recursion
        limit (wide WAN header layouts build BDDs hundreds of levels deep)."""
        import sys

        num_vars = 600
        mgr = BddManager(num_vars)
        wide_a = mgr.cube({i: (i % 2 == 0) for i in range(num_vars)})
        wide_b = mgr.cube({i: (i % 3 != 1) for i in range(num_vars)})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(90)
        try:
            # The cubes conflict (e.g. bit 4: a wants 1, b wants 0).
            assert mgr.apply_and(wide_a, wide_b) == FALSE
            union = mgr.apply_or(wide_a, wide_b)
            assert mgr.apply_diff(union, wide_b) != union
            assert mgr.apply_xor(wide_a, wide_a) == FALSE
            complement = mgr.apply_not(union)
            assert mgr.apply_not(complement) == union
            assert mgr.count(union) > 0
        finally:
            sys.setrecursionlimit(limit)

    def test_stats_count_ops_and_peak(self, mgr):
        mgr.apply_and(mgr.var(0), mgr.var(1))
        mgr.apply_or(mgr.var(1), mgr.var(2))
        mgr.apply_not(mgr.var(0))
        snap = mgr.profile()
        assert snap["ops_and"] == 1
        assert snap["ops_or"] == 1
        assert snap["ops_not"] == 1
        assert snap["peak_nodes"] >= mgr.node_count() - 0
        assert snap["table_nodes"] == mgr.node_count()

    def test_size_matches_reachable_set(self, mgr):
        f = mgr.apply_or(
            mgr.apply_and(mgr.var(0), mgr.var(1)),
            mgr.apply_and(mgr.var(2), mgr.var(3)),
        )
        seen = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n in seen or n in (FALSE, TRUE):
                continue
            seen.add(n)
            stack.append(mgr.low(n))
            stack.append(mgr.high(n))
        assert mgr.size(f) == len(seen)
