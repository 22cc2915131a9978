"""Gain graph construction, walk and cycle gains, balance, switching.

Key claims covered here:
  * the reverse orientation of an edge carries the conjugate gain;
  * walk gains multiply under concatenation and conjugate under reversal;
  * a graph is balanced iff every simple cycle has gain 1 (checked
    against exhaustive cycle enumeration);
  * switching preserves all cycle gains and therefore balance.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Q,
    all_simple_cycles,
    demo_graph,
    potential_balanced_graph,
    random_connected_graph,
    random_switching,
    random_unit,
)
from gainlap import (
    GainGraph,
    NotACycle,
    NotAWalk,
    SwitchingFunction,
    ValidationError,
    VertexOrdering,
    WeightedGainGraph,
    ZeroGain,
    cycle_gain,
    is_balanced,
    normalize_gain,
    path_gain,
    switch,
    unit_weights,
)


class TestNormalizeGain:
    def test_unit_input_unchanged(self):
        assert normalize_gain(complex(0.6, 0.8)) == complex(0.6, 0.8)

    def test_rescales_off_circle_input(self):
        assert normalize_gain(2.0 + 0.0j) == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "z", [complex(float("nan"), 0.0), complex(0.0, float("inf")), complex(float("-inf"), 1.0)]
    )
    def test_non_finite_rejected(self, z):
        with pytest.raises(ValidationError, match="not finite"):
            normalize_gain(z)
        with pytest.raises(ValidationError, match=r"edges\[0\]\.gain"):
            GainGraph(2, ((1, 2, z),))
        with pytest.raises(ValidationError):
            SwitchingFunction((1, z))

    def test_zero_rejected(self):
        with pytest.raises(ZeroGain):
            normalize_gain(0.0)

    @pytest.mark.parametrize("z", ["1", "x", True, None])
    def test_non_number_rejected(self, z):
        with pytest.raises(ValidationError, match="expected a number"):
            normalize_gain(z)

    def test_strict_rejects_far_from_unit(self):
        with pytest.raises(ValidationError):
            normalize_gain(1.001 + 0.0j, strict=True)

    def test_strict_accepts_and_renormalizes_near_unit(self):
        z = normalize_gain(complex(1.0 + 5e-7, 0.0), strict=True)
        assert abs(abs(z) - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "z, small",
        [
            (complex(1.5e308, 1.5e308), complex(1.0, 1.0)),
            (complex(1.5e308, -1.5e308), complex(1.0, -1.0)),
            (complex(-1.7e308, 1e308), complex(-1.7, 1.0)),
            (complex(-1e308, -1.7e308), complex(-1.0, -1.7)),
        ],
    )
    def test_modulus_beyond_the_float_range(self, z, small):
        """Regression: abs(z) raised a bare OverflowError.  z is scaled
        down by its larger part first, so it keeps its direction."""
        with pytest.raises(OverflowError):
            abs(z)
        got = normalize_gain(z)
        assert abs(abs(got) - 1.0) <= 1e-15
        assert cmath.phase(got) == pytest.approx(cmath.phase(small), abs=1e-15)
        assert GainGraph(2, ((1, 2, z),)).edges[0][2] == got
        assert SwitchingFunction((1, z)).values[1] == got
        with pytest.raises(ValidationError, match="beyond the float range"):
            normalize_gain(z, strict=True)


class TestGainGraph:
    def test_reversal_is_conjugate(self):
        g = GainGraph(2, ((1, 2, 1j),))
        assert g.gain(1, 2) == 1j
        assert g.gain(2, 1) == -1j

    def test_rejects_u_not_less_than_v(self):
        with pytest.raises(ValidationError):
            GainGraph(3, ((2, 1, 1.0),))

    def test_rejects_loop(self):
        with pytest.raises(ValidationError):
            GainGraph(3, ((2, 2, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError):
            GainGraph(3, ((1, 2, 1.0), (1, 2, 1j)))

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ValidationError):
            GainGraph(3, ((1, 4, 1.0),))

    @pytest.mark.parametrize(
        "n, edges, field",
        [
            (True, (), "n"),
            (2, ((1, 2, "1"),), r"edges\[0\]\.gain"),
            (2, ((1, 2, "x"),), r"edges\[0\]\.gain"),
            (2, ((1, 2, True),), r"edges\[0\]\.gain"),
        ],
        ids=["bool-n", "str-gain", "text-gain", "bool-gain"],
    )
    def test_rejects_malformed_values(self, n, edges, field):
        with pytest.raises(ValidationError, match=rf"^{field}: "):
            GainGraph(n, edges)

    def test_non_edge_query(self):
        g = GainGraph(3, ((1, 2, 1.0),))
        with pytest.raises(NotAWalk):
            g.gain(1, 3)

    def test_underlying_drops_gains(self):
        g = demo_graph()
        u = g.underlying()
        assert u.edge_pairs() == g.edge_pairs()
        assert all(z == 1 for _, _, z in u.edges)

    def test_underlying_is_built_once(self):
        g = demo_graph()
        assert g.underlying() == GainGraph(5, tuple((u, v, 1) for u, v in g.edge_pairs()))


class TestWeightedGainGraph:
    def test_weight_lookup_is_orientation_free(self):
        wg = WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (2.5,))
        assert wg.weight(1, 2) == wg.weight(2, 1) == 2.5

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(ValidationError, match=r"weights\[0\]"):
            WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (w,))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            WeightedGainGraph(GainGraph(2, ((1, 2, 1.0),)), (0.0,))

    @pytest.mark.parametrize(
        "w", ["3", True, None, pytest.param(10**400, id="10**400"), 1j]
    )
    def test_rejects_non_number_weight(self, w):
        with pytest.raises(ValidationError, match=r"^weights\[0\]: "):
            WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (w,))

    def test_accepts_integer_weights(self):
        wg = WeightedGainGraph(GainGraph(2, ((1, 2, 1j),)), (np.int64(3),))
        assert wg.weights == (3.0,) and type(wg.weights[0]) is float

    def test_rejects_misaligned_weights(self):
        with pytest.raises(ValidationError):
            WeightedGainGraph(GainGraph(2, ((1, 2, 1.0),)), (1.0, 2.0))

    def test_rejects_a_vertex_sum_beyond_the_float_range(self):
        """Regression: each weight is finite but the Laplacian's diagonal
        entry at vertex 2 is not; rank read 0 and det NaN.  With weights
        8e307 that entry is finite, but the spectrum, bounded by twice
        it, is not: rank read 0 and the top eigenvalue inf."""
        tri = GainGraph(3, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1j)))
        for heavy in (1.5e308, 8e307):
            with pytest.raises(ValidationError, match=r"^weights: .* vertex 2 "):
                WeightedGainGraph(tri, (heavy, heavy, 1.0))
        wg = WeightedGainGraph(tri, (4e307, 4e307, 1.0))  # twice the sums stay finite
        assert wg.weights == (4e307, 4e307, 1.0)


class TestVertexOrdering:
    def test_standard_and_reverse(self):
        o = VertexOrdering.standard(4)
        assert o.ranks == (1, 2, 3, 4)
        r = o.reverse()
        assert r.ranks == (4, 3, 2, 1)
        assert r.reverse() == o

    def test_ranks_place_each_vertex(self):
        o = VertexOrdering((3, 1, 2))  # vertex 2 first, then 3, then 1
        assert sorted(range(1, 4), key=lambda v: o.ranks[v - 1]) == [2, 3, 1]
        assert o.reverse().ranks == (1, 3, 2)  # vertex 1 first, then 3, then 2

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            VertexOrdering((1, 1, 3))

    @pytest.mark.parametrize(
        "ranks", [(True, 2), (1.0, 2.0), (), (2, "1")], ids=["bool", "float", "empty", "str"]
    )
    def test_rejects_malformed_ranks(self, ranks):
        with pytest.raises(ValidationError, match=r"^ordering: "):
            VertexOrdering(ranks)


class TestPathGain:
    def test_demo_two_step_path(self):
        # gains 1 then e^{i pi/4} along 1-2-3
        assert path_gain(demo_graph(), [1, 2, 3]) == pytest.approx(Q)

    def test_single_vertex_is_trivial(self):
        assert path_gain(demo_graph(), [3]) == 1

    def test_reversed_walk_conjugates(self):
        g = demo_graph()
        z = path_gain(g, [1, 2, 3, 4])
        assert path_gain(g, [4, 3, 2, 1]) == pytest.approx(z.conjugate())

    def test_concatenation_multiplies(self):
        g = demo_graph()
        assert path_gain(g, [5, 1, 2, 3]) == pytest.approx(
            path_gain(g, [5, 1]) * path_gain(g, [1, 2, 3])
        )

    def test_non_walk_rejected(self):
        with pytest.raises(NotAWalk):
            path_gain(demo_graph(), [1, 3])

    def test_empty_rejected(self):
        with pytest.raises(NotAWalk):
            path_gain(demo_graph(), [])


class TestCycleGain:
    def triangle(self, third_gain):
        # labels oriented along 1 -> 2 -> 3 -> 1; the stored (1, 3) gain
        # is the conjugate of the 3 -> 1 label
        return GainGraph(3, ((1, 2, 1), (2, 3, 1), (1, 3, third_gain.conjugate())))

    def test_forward_product_of_labels(self):
        g = self.triangle(1j)
        assert cycle_gain(g, [1, 2, 3]) == pytest.approx(1j)

    def test_backward_is_conjugate(self):
        g = self.triangle(1j)
        assert cycle_gain(g, [1, 3, 2]) == pytest.approx(-1j)

    def test_explicit_closure_accepted(self):
        g = self.triangle(1.0)
        assert cycle_gain(g, [1, 2, 3, 1]) == pytest.approx(1.0)

    def test_too_short_rejected(self):
        with pytest.raises(NotACycle):
            cycle_gain(demo_graph(), [1, 2])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(NotACycle):
            cycle_gain(demo_graph(), [1, 2, 1, 4])

    def test_starting_point_invariance(self):
        g = demo_graph()
        z = cycle_gain(g, [1, 2, 3, 4])
        assert cycle_gain(g, [3, 4, 1, 2]) == pytest.approx(z)


#: The gain group T4 = {1, i, -1, -i}: cycle gains are exact.
T4 = (1 + 0j, 1j, -1 + 0j, -1j)


@st.composite
def any_small_graphs(draw):
    """A graph on at most 7 vertices, connected or not, whose gains are a
    vertex potential (balanced), a potential with some edges twisted away
    from it, generic, or in T4."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["potential", "twisted", "generic", "t4"]))
    theta = [random_unit(rng) for _ in range(n + 1)]

    def gain(u: int, v: int) -> complex:
        if kind == "generic":
            return random_unit(rng)
        if kind == "t4":
            return T4[int(rng.integers(4))]
        z = theta[u].conjugate() * theta[v]
        if kind == "twisted" and rng.random() < 0.3:
            z *= cmath.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1))
        return z

    return GainGraph(n, tuple((u, v, gain(u, v)) for u, v in sorted(chosen)))


class TestBalance:
    def test_demo_graph_unbalanced(self):
        # its 4-cycle has gain e^{i pi/2}
        g = demo_graph()
        assert cycle_gain(g, [1, 2, 3, 4]) == pytest.approx(1j)
        assert not is_balanced(g)

    def test_trees_are_balanced(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            assert is_balanced(random_connected_graph(rng, n, extra=0))

    def test_agrees_with_exhaustive_cycle_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            extra = int(rng.integers(0, 4))
            g = (
                potential_balanced_graph(rng, n, extra)
                if trial % 2
                else random_connected_graph(rng, n, extra)
            )
            oracle = all(
                abs(cycle_gain(g, c) - 1) <= 1e-9 for c in all_simple_cycles(g)
            )
            assert is_balanced(g) == oracle

    @given(any_small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_cycle_oracle(self, g):
        """Graphs on at most 7 vertices, disconnected ones included."""
        oracle = all(abs(cycle_gain(g, c) - 1) <= 1e-9 for c in all_simple_cycles(g))
        assert is_balanced(g) == oracle

    def test_potential_construction_is_balanced(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert is_balanced(potential_balanced_graph(rng, int(rng.integers(3, 8)), 3))


class TestSwitching:
    def test_single_edge_example(self):
        g = GainGraph(2, ((1, 2, 1j),))
        xi = SwitchingFunction((1, -1j))
        assert switch(g, xi).gain(1, 2) == pytest.approx(1.0)

    def test_identity_switch_is_noop(self):
        g = demo_graph()
        assert switch(g, SwitchingFunction.identity(5)) == g

    def test_preserves_cycle_gains(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, extra=int(rng.integers(1, 4)))
            gx = switch(g, random_switching(rng, n))
            for c in all_simple_cycles(g):
                assert cycle_gain(gx, c) == pytest.approx(cycle_gain(g, c))

    def test_preserves_balance_both_ways(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = potential_balanced_graph(rng, n, 2)
            assert is_balanced(switch(g, random_switching(rng, n)))

    def test_roundtrip_with_conjugate_switch(self):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 6, 3)
        xi = random_switching(rng, 6)
        back = SwitchingFunction(tuple(z.conjugate() for z in xi.values))
        gx = switch(switch(g, xi), back)
        assert all(
            abs(a[2] - b[2]) < 1e-12 for a, b in zip(gx.edges, g.edges)
        )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            switch(demo_graph(), SwitchingFunction.identity(4))


def test_unit_weights_wrapper():
    wg = unit_weights(demo_graph())
    assert wg.weights == (1.0,) * 5
    assert wg.weight(2, 3) == 1.0


def test_switching_function_normalizes():
    xi = SwitchingFunction((2.0, 1j))
    assert xi.of(1) == 1.0
    assert xi.of(2) == 1j
