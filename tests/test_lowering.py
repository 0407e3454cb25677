import itertools
import random
from fractions import Fraction

import pytest
import qlower.lowering
from hypothesis import given, settings
from hypothesis import strategies as st

from qlower import (
    CapacityError,
    DomainError,
    Network,
    TheoremBoundParams,
    WeightSet,
    binarize,
    binary_prefix,
    decompose_binary,
    decompose_ternary,
    evaluate,
    random_network,
    sparsity,
    ternarize,
    ternary_prefix,
    theorem_bounds,
    to_unit_weights,
    validate,
)
from qlower.network import ActivationKind
from conftest import mat, relu_net

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

BASE_A = sorted(WeightSet.BASE_A.members())
TERNARY = sorted(WeightSet.TERNARY_HALF.members())

GRID_1D = [Fraction(i, 4) for i in range(5)]


def dyadic_points(rng, d, n, denominator=256):
    return [tuple(Fraction(rng.randrange(denominator + 1), denominator)
                  for _ in range(d)) for _ in range(n)]


class TestDecompositions:
    @pytest.mark.parametrize("w, expected", [
        (Fraction(2), (HALF, HALF, HALF, HALF)),
        (Fraction(-1), (-HALF, -HALF, 0, 0)),
        (Fraction(1), (HALF, HALF, 0, 0)),
        (HALF, (HALF, 0, 0, 0)),
        (-HALF, (-HALF, 0, 0, 0)),
        (Fraction(0), (0, 0, 0, 0)),
    ])
    def test_ternary_canonical_splits(self, w, expected):
        assert decompose_ternary(w) == expected

    @pytest.mark.parametrize("w", [Fraction(3, 2), Fraction(1, 4), Fraction(-2)])
    def test_ternary_rejects_outside_alphabet(self, w):
        with pytest.raises(DomainError):
            decompose_ternary(w)

    def test_ternary_sums_and_membership(self):
        for w in BASE_A:
            parts = decompose_ternary(w)
            assert sum(parts) == w
            assert all(p in (0, HALF, -HALF) for p in parts)

    @pytest.mark.parametrize("w, expected", [
        (HALF, (QUARTER, QUARTER)),
        (Fraction(0), (QUARTER, -QUARTER)),
        (-HALF, (-QUARTER, -QUARTER)),
    ])
    def test_binary_canonical_splits(self, w, expected):
        assert decompose_binary(w) == expected

    def test_binary_rejects_outside_alphabet(self):
        with pytest.raises(DomainError):
            decompose_binary(Fraction(1))

    def test_binary_sums_and_membership(self):
        for w in TERNARY:
            parts = decompose_binary(w)
            assert sum(parts) == w
            assert all(p in (QUARTER, -QUARTER) for p in parts)


class TestValuesTooLongToPrint:
    """A value with more digits than str() prints is named by its bit
    length in every refusal, never raised as a raw ValueError."""

    HUGE = Fraction(10**5000)

    @pytest.mark.parametrize("decompose", [decompose_ternary, decompose_binary])
    def test_decompositions(self, decompose):
        with pytest.raises(DomainError, match=r"^<16610-bit integer> is not in the \{0"):
            decompose(self.HUGE)

    @pytest.mark.parametrize("lower", [ternarize, binarize])
    def test_entry(self, lower):
        with pytest.raises(DomainError, match=r"entry \(0,0\) is <16610-bit integer>$"):
            lower(relu_net(1, [[self.HUGE, 0]]))

    @pytest.mark.parametrize("lower", [ternarize, binarize])
    def test_output_scale(self, lower):
        with pytest.raises(DomainError, match="got <16610-bit integer>$"):
            lower(relu_net(1, [[0, HALF]], scale=self.HUGE))


class TestTernaryPrefix:
    def test_quadruplicates_the_coordinates(self):
        out = evaluate(ternary_prefix(1), [Fraction(1, 4)])
        assert out == (1, 1, 1, 1, QUARTER, QUARTER, QUARTER, QUARTER)

    def test_endpoint_inputs(self):
        out = evaluate(ternary_prefix(2), [0, 1])
        assert out == (1,) * 4 + (0,) * 4 + (1,) * 4

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_sparsity_is_twenty_per_coordinate(self, d):
        assert sparsity(ternary_prefix(d)).total_nonzero == 20 * (d + 1)

    def test_weights_stay_in_the_half_alphabet(self):
        prefix = ternary_prefix(3)
        assert validate(prefix, WeightSet.TERNARY_HALF).passed
        assert all(e in (0, HALF) for m in prefix.matrices for e in m.entries)

    def test_random_points_reproduced_exactly(self):
        rng = random.Random(401)
        for d in (1, 2, 3):
            prefix = ternary_prefix(d)
            for x in dyadic_points(rng, d, 25):
                assert evaluate(prefix, x) == (1,) * 4 + tuple(
                    v for v in x for _ in range(4))


class TestBinaryPrefix:
    @pytest.mark.parametrize("x, expected", [
        ([0], (1, 1, 0, 0)),
        ([1], (1, 1, 1, 1)),
    ])
    def test_one_dimensional_outputs(self, x, expected):
        assert evaluate(binary_prefix(1), x) == expected

    def test_two_dimensional_output(self):
        assert evaluate(binary_prefix(2), [HALF, HALF]) == \
            (1, 1, HALF, HALF, HALF, HALF)

    def test_every_entry_is_quarter_magnitude(self):
        prefix = binary_prefix(2)
        assert validate(prefix, WeightSet.BINARY_QUARTER).passed
        total = sum(m.rows * m.cols for m in prefix.matrices)
        assert sparsity(prefix).total_nonzero == total

    def test_random_points_reproduced_exactly(self):
        rng = random.Random(402)
        for d in (1, 2, 3):
            prefix = binary_prefix(d)
            for x in dyadic_points(rng, d, 25):
                assert evaluate(prefix, x) == (1, 1) + tuple(
                    v for v in x for _ in range(2))


class TestTernarize:
    def test_worked_example_accounting(self, example_net):
        lowered, cert = ternarize(example_net)
        assert lowered.depth == example_net.depth + 2 == 3
        assert validate(lowered, WeightSet.TERNARY_HALF).passed
        assert cert.passed
        assert cert.target_sparsity_bound == 16 * 5 + 20 * 2 == 120
        assert cert.target_width_bound == 4 * example_net.width_max == 8
        assert lowered.width_max <= 8
        assert sparsity(lowered).total_nonzero <= 120

    def test_worked_example_values_preserved(self, example_net):
        lowered, _ = ternarize(example_net)
        for x in GRID_1D:
            assert evaluate(lowered, [x]) == evaluate(example_net, [x])

    def test_depth_zero_source_gains_two_layers(self, identity_net):
        lowered, cert = ternarize(identity_net)
        for x in GRID_1D:
            assert evaluate(lowered, [x]) == x
        # The certificate reports the given (depth-0) source.
        assert cert.source_depth == 0 and cert.passed
        assert lowered.depth == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_depth_zero_nets_lower_exactly(self, d):
        rng = random.Random(f"depth0:{d}")
        grid = [tuple(Fraction(i, 3) for i in p) for p in itertools.product(range(4), repeat=d)]
        for _ in range(10):
            net = random_network(rng, d, 0, 1)
            tern, tern_cert = ternarize(net)
            binr, bin_cert = binarize(tern)
            assert (tern.depth, binr.depth) == (2, 5)
            assert tern_cert.passed and bin_cert.passed
            for x in grid:
                assert evaluate(tern, x) == evaluate(binr, x) == evaluate(net, x)

    def test_random_base_nets_equivalent(self):
        rng = random.Random(403)
        for _ in range(10):
            net = random_network(rng, 2, 3, 6)
            lowered, cert = ternarize(net)
            assert cert.passed
            for x in dyadic_points(rng, 2, 5):
                assert evaluate(lowered, x) == evaluate(net, x)

    def test_rejects_unsupported_inputs(self, example_net):
        with pytest.raises(DomainError):
            ternarize(relu_net(1, [["3/2", 1]]))
        with pytest.raises(DomainError):
            ternarize(Network(1, example_net.matrices,
                              ActivationKind.INDICATOR01))
        with pytest.raises(DomainError):
            ternarize(Network(1, example_net.matrices, ActivationKind.RELU,
                              Fraction(1, 2)))

    def test_offending_weight_named(self):
        with pytest.raises(DomainError) as err:
            ternarize(relu_net(1, [[0, 1], ["1/4", 0]], [[1, 1]]))
        assert "(1,0)" in str(err.value) and "1/4" in str(err.value)


class TestBinarize:
    def test_total_depth_after_both_passes(self, example_net):
        middle, _ = ternarize(example_net)
        lowered, cert = binarize(middle)
        assert lowered.depth == example_net.depth + 5 == 6
        assert cert.target_depth == middle.depth + 3
        assert cert.target_width_bound == 8 * middle.width_max

    def test_result_has_no_zero_entries(self, example_net):
        middle, _ = ternarize(example_net)
        lowered, _ = binarize(middle)
        assert validate(lowered, WeightSet.BINARY_QUARTER).passed
        total = sum(m.rows * m.cols for m in lowered.matrices)
        assert sparsity(lowered).total_nonzero == total

    def test_random_ternary_nets_equivalent(self):
        rng = random.Random(404)
        for _ in range(10):
            net = random_network(rng, 2, 2, 5, alphabet=WeightSet.TERNARY_HALF)
            lowered, cert = binarize(net)
            assert cert.passed
            for x in dyadic_points(rng, 2, 5):
                assert evaluate(lowered, x) == evaluate(net, x)

    def test_rejects_base_alphabet_input(self, example_net):
        with pytest.raises(DomainError):
            binarize(example_net)  # weight 1 is not ternary

    def test_end_to_end_from_base(self, example_net):
        middle, _ = ternarize(example_net)
        lowered, _ = binarize(middle)
        for x in GRID_1D:
            assert evaluate(lowered, [x]) == evaluate(example_net, [x])


class TestCachedPrefixes:
    """Each prefix is built once per d, within QLOWER_CAP."""

    @pytest.mark.parametrize("lower", [ternarize, binarize])
    def test_lowerings_at_one_d_share_their_prefix_matrices(self, lower):
        alphabet = WeightSet.BASE_A if lower is ternarize else WeightSet.TERNARY_HALF
        first, second = (lower(random_network(random.Random(seed), 2, 2, 4, alphabet))[0]
                         for seed in (1, 2))
        depth = 2 if lower is ternarize else 3
        assert all(a is b for a, b in zip(first.matrices[:depth], second.matrices[:depth]))

    @pytest.mark.parametrize("prefix, size", [
        (ternary_prefix, lambda n: 20 * n * n),
        (binary_prefix, lambda n: 8 * n * n + 10 * n * (4 * n + 4)),
    ])
    def test_entry_count_and_cap(self, monkeypatch, prefix, size):
        for d in (1, 2, 3, 7):
            assert sum(m.rows * m.cols for m in prefix(d).matrices) == size(d + 1)
        prefix.cache_clear()
        monkeypatch.setenv("QLOWER_CAP", str(size(4)))
        assert prefix(3) is prefix(3)
        with pytest.raises(CapacityError, match=f"needs {size(5)} entries"):
            prefix(4)
        with pytest.raises(CapacityError, match="needs at least 2\\^"):
            prefix(10**5000)
        assert prefix.cache_info().currsize == 1  # nothing refused is held
        prefix.cache_clear()

    def test_refused_before_anything_is_built(self, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "10")

        def no_build(rows):
            raise AssertionError("a prefix matrix was built")

        monkeypatch.setattr(qlower.lowering.WeightMatrix, "from_rows", no_build)
        for prefix in (ternary_prefix, binary_prefix):
            prefix.cache_clear()  # a cached gadget is handed out unchecked
            with pytest.raises(CapacityError):
                prefix(50)


@pytest.mark.parametrize("prefix", [ternary_prefix, binary_prefix])
@pytest.mark.parametrize("d", [[1], {}], ids=["list", "dict"])
def test_unhashable_d_refused_before_the_cache(prefix, d):
    with pytest.raises(DomainError, match=rf"^d must be an integer >= 1, got \{str(d)[0]}"):
        prefix(d)


class TestDistinctObjectLowering:
    """binarize splits each distinct entry object of a matrix once."""

    def test_binarize_splits_each_object_once(self, monkeypatch):
        source = random_network(random.Random(12), 3, 3, 8)
        tern, _ = ternarize(source)
        expected, _ = binarize(tern)
        calls = []
        real = qlower.lowering.decompose_binary

        def counting(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(qlower.lowering, "decompose_binary", counting)
        lowered, _ = binarize(tern)
        assert lowered == expected
        objects = sum(len({id(e) for e in m.entries}) for m in tern.matrices)
        entries = sum(len(m.entries) for m in tern.matrices)
        assert len(calls) <= objects < entries // 10


class TestToUnitWeights:
    def test_ternary_scale_is_two_to_minus_matrix_count(self):
        net = relu_net(1, [[0, "1/2"]], [["1/2"]], [["-1/2"]], [["1/2"]])
        unit = to_unit_weights(net)
        assert unit.output_scale == Fraction(1, 16)
        assert validate(unit, WeightSet.TERNARY_UNIT).passed

    def test_binary_scale_is_four_to_minus_matrix_count(self, example_net):
        middle, _ = ternarize(example_net)
        lowered, _ = binarize(middle)
        unit = to_unit_weights(lowered)
        assert len(lowered.matrices) == 7
        assert unit.output_scale == Fraction(1, 4**7)
        assert validate(unit, WeightSet.BINARY_UNIT).passed

    def test_function_unchanged(self, example_net):
        middle, _ = ternarize(example_net)
        unit = to_unit_weights(middle)
        x = [HALF]
        assert evaluate(unit, x) == evaluate(middle, x) == evaluate(example_net, x)

    def test_rejects_other_alphabets(self, example_net):
        with pytest.raises(DomainError):
            to_unit_weights(example_net)  # baseA, not half/quarter

    def test_rejects_non_relu(self):
        net = Network(1, (mat([[0, "1/2"]]), mat([["1/2"]])),
                      ActivationKind.INDICATOR01)
        with pytest.raises(DomainError):
            to_unit_weights(net)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lowering_pipeline_property(seed):
    rng = random.Random(seed)
    net = random_network(rng, rng.randint(1, 3), rng.randint(0, 2), 4)
    t, cert_t = ternarize(net)
    b, cert_b = binarize(t)
    assert cert_t.passed and cert_b.passed
    x = tuple(Fraction(rng.randrange(33), 32) for _ in range(net.input_dim))
    want = evaluate(net, x)
    assert evaluate(t, x) == want
    assert evaluate(b, x) == want
    assert evaluate(to_unit_weights(t), x) == want
    assert evaluate(to_unit_weights(b), x) == want


class TestTheoremBounds:
    # Frozen against an independent evaluation of the printed formulas
    # (whole-term ceiling on the 8*log2 term, ceiling on the width,
    # floor on the sparsity product).
    CASES = [
        ((1, 1.0, 1.0, 6, 1),
         dict(L=81, p_inf=144, s_max=133214544,
              tern=(83, 576, 2131432744), binr=(86, 4608))),
        ((2, 1.0, 1.0, 15, 2),
         dict(L=161, p_inf=1080, s_max=25105489920,
              tern=(163, 4320, 401687838780), binr=(166, 34560))),
        ((1, 0.5, 1.0, 6, 3),
         dict(L=75, p_inf=144, s_max=59484375,
              tern=(77, 576, 951750040), binr=(80, 4608))),
        ((3, 1.0, 2.0, 64, 1),
         dict(L=287, p_inf=12288, s_max=7769664000000,
              tern=(289, 49152, 124314624000080), binr=(292, 393216))),
        ((2, 0.5, 0.5, 12, 4),
         dict(L=139, p_inf=864, s_max=8893810611,
              tern=(141, 3456, 142300969836), binr=(144, 27648))),
    ]

    @pytest.mark.parametrize("params, expected", CASES)
    def test_frozen_parameter_sets(self, params, expected):
        d, beta, K, N, m = params
        report = theorem_bounds(TheoremBoundParams(m=m, N=N, beta=beta, d=d, K=K))
        assert report.L == expected["L"]
        assert report.p_inf == expected["p_inf"]
        assert report.s_max == expected["s_max"]
        assert report.lowered_ternary == expected["tern"]
        assert report.lowered_binary == expected["binr"]

    @pytest.mark.parametrize("params, err", [
        ((1, 1.0, 1.0, 5, 1), 3.1666666666666665),
        ((3, 1.0, 2.0, 64, 1), 32.25),
    ])
    def test_error_factor(self, params, err):
        d, beta, K, N, m = params
        if N < 6:
            return  # handled by the precondition test below
        report = theorem_bounds(TheoremBoundParams(m=m, N=N, beta=beta, d=d, K=K))
        assert report.error_factor == pytest.approx(err, rel=1e-12)

    def test_binary_width_is_thirty_two_fold(self):
        report = theorem_bounds(TheoremBoundParams(m=2, N=20, beta=1.0, d=2, K=1.0))
        assert report.lowered_binary[1] == 32 * report.p_inf

    @pytest.mark.parametrize("d, N", [(1, 5), (2, 14)])
    def test_rejects_resolution_below_precondition(self, d, N):
        with pytest.raises(DomainError) as err:
            theorem_bounds(TheoremBoundParams(m=1, N=N, beta=1.0, d=d, K=1.0))
        assert "N" in str(err.value)
