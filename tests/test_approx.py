import dataclasses
import importlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlower.approx
import qlower.harness
from qlower import (
    ActivationKind,
    ApproximatorBundle,
    CapacityError,
    DimensionError,
    DomainError,
    GridSpec,
    HolderFunctionSpec,
    Network,
    ParseError,
    WeightMatrix,
    WeightSet,
    build_approximator,
    build_readout,
    build_selector_matrix,
    build_threshold_matrix,
    builtin_target,
    bundle_from_network,
    cell_index,
    choose_resolution,
    deserialize,
    evaluate,
    evaluate_implicit,
    forward_trace,
    as_rational,
    round_binary64,
    serialize,
    sparsity,
    validate,
)
from qlower.approx import NOTE_CERTIFIED, NOTE_USER_M, selector_cap
from qlower.network import plan_layer

from conftest import forbid_selector_builds, time_limit

F = Fraction
BENCH = Path(__file__).resolve().parent.parent / "bench"


def linear_spec(d=1):
    return HolderFunctionSpec(lambda x: sum(map(F, x)) / d, d, 1.0, 1.0, 1.0)


def asymmetric(x):
    """(x_1 + 2 x_2 + 3 x_3)^2 on the first len(x) axes: swapping axes changes it."""
    return sum((i + 1) * F(v) for i, v in enumerate(x)) ** 2


class TestChooseResolution:
    @pytest.mark.parametrize("K, beta, eps, expected", [
        (1, 1, "1/10", 10),          # (K/eps)^(1/beta) exactly
        (2, 0.5, "1/2", 16),         # (4)^2
        (1, 1, 1, 1),                # K = eps
        ("1/2", 1, "1/2", 1),
        (1, 0.5, "1/5", 25),         # exact integer-power path
        (1, 1, "2/3", 2),            # ceil(3/2)
        (1, 1, 3, 1),                # floor at 1
        (2, "2/3", "1/4", 23),       # least N with N^2 >= 8^3 = 512
        (1, "3/7", "1/8", 128),      # 8^(7/3) = 128 exactly; binary64 gave 129
        (1, 0.7, "1/10", 27),        # binary64 beta: denominator 2^52
        (4, "0.5" + "0" * 60 + "1", 1, 16),  # 16^beta just above 4
        (4, "0.4" + "9" * 60, 1, 17),        # 16^beta just below 4
        # (K/eps)^r of exactly _EXACT_BITS bits is still expanded
        pytest.param(2**65535, 1, 1, 2**65535, id="exact-bits"),
        # on the logarithm path, log2 of the root is exactly _SEED_BITS: still
        # seeded, and 2^50 + 1 is the least N with N^beta >= 2^50
        pytest.param(2**50, 1 - F(1, 2**60), 1, 2**50 + 1, id="seed-bits"),
    ])
    def test_values(self, K, beta, eps, expected):
        assert choose_resolution(K, beta, eps) == expected

    def test_non_unit_fraction_beta_decided_exactly(self):
        # beta=2/3: M=7 certifies iff K/8^(2/3) = K/4 <= 1, false for K just
        # above 4; binary64 rounds K to 4.0 and read it as certified.
        K = F(4 * 10**17 + 1, 10**17)
        assert choose_resolution(K, F(2, 3), 1) == 9  # least N with N^2 >= ceil(K^3) = 65
        spec = HolderFunctionSpec(lambda x: F(0), 1, F(2, 3), K, 1)
        assert not build_approximator(spec, 1, M_override=7).certified
        assert build_approximator(spec, 1, M_override=8).certified

    @pytest.mark.parametrize("K, beta, eps", [
        (0, 1, 1), (-1, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, -1),
        (2, 0.01, 1),  # 2^100, with a denominator too large for exact powers
        (1, "1e-400", "1/2"),  # beta rounds to 0.0 in binary64
        # one bit over _EXACT_BITS, and above 2^_SEED_BITS
        pytest.param(2**65536, 1, 1, id="over-exact-bits"),
    ])
    def test_rejections(self, K, beta, eps):
        with pytest.raises(DomainError):
            choose_resolution(K, beta, eps)

    @pytest.mark.parametrize("K, beta", [(10**6, 0.7), (2**40, 1 - F(1, 2**60))])
    def test_logarithm_path_steps_are_bounded(self, monkeypatch, K, beta):
        # A holder_sign that never settles would step for about N steps; 64
        # steps from the binary64 root is a bug, not bad input, and ends.
        real = qlower.approx.holder_sign
        monkeypatch.setattr(qlower.approx, "holder_sign", lambda *args: -real(*args))
        with time_limit(1), pytest.raises(RuntimeError, match="made 64 steps"):
            choose_resolution(K, beta, 1)


class TestGridSpec:
    def test_cell_count(self):
        assert GridSpec(2, 4).cell_count == 25

    def test_coords_round_trip(self):
        grid = GridSpec(3, 2)
        for k in range(grid.cell_count):
            assert sum(m * place for m, place in zip(grid.cell_coords(k), grid.place_values)) == k

    def test_representative_is_smallest_corner(self):
        grid = GridSpec(2, 2)
        assert grid.representative(7) == (F(1, 3), F(2, 3))

    def test_place_values_are_powers_of_the_base(self):
        assert GridSpec(3, 4).place_values == (1, 5, 25)

    @given(st.integers(min_value=1, max_value=40),
           st.fractions(min_value=0, max_value=1))
    def test_digit_is_the_half_open_floor(self, M, v):
        grid = GridSpec(1, M)
        m = grid.digit(v)
        assert m == min(M, math.floor(v * (M + 1)))
        assert F(m, M + 1) <= v and (v < F(m + 1, M + 1) or m == M)

    @pytest.mark.parametrize("d, M", [(0, 1), (1, 0), (-1, 3)])
    def test_invalid_parameters(self, d, M):
        with pytest.raises(DomainError):
            GridSpec(d, M)


class TestCellIndex:
    def test_one_dimensional_example(self):
        # thresholds at 1/5..4/5; 0.3 clears only the first
        assert cell_index([0.3], GridSpec(1, 4)) == 1

    def test_two_dimensional_example(self):
        # thresholds at 1/3, 2/3: m = (1, 2), k = 1 + 2*3
        assert cell_index([0.5, 0.9], GridSpec(2, 2)) == 7

    def test_origin_and_far_corner(self):
        grid = GridSpec(2, 3)
        assert cell_index([0, 0], grid) == 0
        assert cell_index([1, 1], grid) == grid.cell_count - 1

    def test_threshold_point_belongs_to_upper_cell(self):
        assert cell_index([F(1, 5)], GridSpec(1, 4)) == 1
        assert cell_index([F(1, 5) - F(1, 10**9)], GridSpec(1, 4)) == 0

    def test_out_of_cube_rejected(self):
        with pytest.raises(DomainError):
            cell_index([F(3, 2)], GridSpec(1, 4))
        with pytest.raises(DomainError):
            cell_index([F(-1, 100)], GridSpec(1, 4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            cell_index([F(1, 2)], GridSpec(2, 4))

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    def test_representatives_map_to_their_cells(self, d, M, salt):
        grid = GridSpec(d, M)
        k = salt % grid.cell_count
        assert cell_index(grid.representative(k), grid) == k


class TestBuilders:
    def test_threshold_matrix_rows(self):
        w = build_threshold_matrix(GridSpec(1, 2))
        assert [w.row(r) for r in range(w.rows)] == [
            (F(0), F(0)), (F(-1, 3), F(1)), (F(-2, 3), F(1))]

    def test_indicator_code_endpoints(self):
        bundle = build_approximator(linear_spec(2), F(1, 3))
        code_at = lambda x: forward_trace(bundle.network, x)[0][0]
        d, M = 2, bundle.grid.M
        assert code_at([0, 0]) == (1,) + (0,) * (d * M)
        assert code_at([1, 1]) == (1,) * (d * M + 1)

    def test_selector_matrix_rows(self):
        v = build_selector_matrix(GridSpec(1, 2))
        assert [v.row(r) for r in range(v.rows)] == [
            (F(0), F(-1), F(-1)), (F(1), F(-1), F(-1)), (F(2), F(-1), F(-1))]

    def test_selector_entry_magnitudes_below_cell_count(self):
        for d, M in ((1, 4), (2, 3)):
            v = build_selector_matrix(GridSpec(d, M))
            bound = (M + 1) ** d
            assert max(abs(e) for e in v.entries) == bound - 1

    def test_readout_linear_example(self):
        grid = GridSpec(1, 4)
        assert build_readout(lambda x: x[0], grid) == \
            (0, F(1, 5), F(2, 5), F(3, 5), F(4, 5))

    def test_readout_two_dimensional_example(self):
        grid = GridSpec(2, 1)
        assert build_readout(lambda x: x[0] + x[1], grid) == \
            (0, F(1, 2), F(1, 2), F(1))

    def test_readout_constant(self):
        assert set(build_readout(lambda x: F(1, 3), GridSpec(2, 2))) == {F(1, 3)}

    def test_readout_propagates_evaluator_failure_with_cell(self):
        def bad(x):
            if x[0] >= F(1, 2):
                raise ValueError("boom")
            return F(0)
        with pytest.raises(DomainError) as err:
            build_readout(bad, GridSpec(1, 3))
        assert "cell 2" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, None])
    def test_readout_locates_a_non_rational_value(self, value):
        with pytest.raises(DomainError) as err:
            build_readout(lambda x: value if x[0] >= F(1, 2) else 0.0, GridSpec(1, 3))
        assert "cell 2" in str(err.value)
        assert isinstance(err.value.__cause__, ParseError)

    def test_readout_message_prints_the_point_as_text(self):
        with pytest.raises(DomainError) as err:
            build_readout(lambda x: None, GridSpec(2, 2))
        assert str(err.value) == "target evaluator failed at cell 0, point ['0', '0']"

    def test_readout_shares_one_fraction_per_float_value(self):
        grid = GridSpec(2, 100)
        readout = build_readout(builtin_target("root", 2), grid)
        assert readout == tuple(as_rational(math.sqrt(max(map(float, grid.representative(k)))))
                                for k in range(grid.cell_count))
        assert len({id(v) for v in readout}) == 101

    def test_readout_refuses_a_target_on_another_dimension(self):
        with pytest.raises(DimensionError, match=r"target is on \[0,1\]\^1, the grid on \[0,1\]\^2"):
            build_readout(builtin_target("mean", 1), GridSpec(2, 2))

    @pytest.mark.parametrize("d, M", [(1, 4), (2, 3), (3, 2)])
    def test_readout_follows_axis_order(self, d, M):
        # every built-in target is symmetric in its coordinates; this one is not
        grid = GridSpec(d, M)
        readout = build_readout(asymmetric, grid)
        assert readout == tuple(asymmetric(grid.representative(k))
                                for k in range(grid.cell_count))

    @pytest.mark.parametrize("d, M", [(1, 1), (1, 4), (2, 3), (3, 2)])
    def test_representatives_in_index_order(self, d, M):
        grid = GridSpec(d, M)
        assert list(grid.representatives()) == [
            (k, grid.representative(k)) for k in range(grid.cell_count)]


class TestBuildApproximator:
    def test_constant_target_is_exact(self):
        spec = HolderFunctionSpec(lambda x: F(1, 3), 1, 1.0, 1.0, 1.0)
        bundle = build_approximator(spec, F(1, 100))
        for x in (0, F(1, 7), F(1, 2), 1):
            assert evaluate(bundle.network, [x]) == F(1, 3)
            assert evaluate_implicit(bundle, [x]) == F(1, 3)

    def test_linear_target_certified_at_fifth(self):
        bundle = build_approximator(linear_spec(), F(1, 5))
        assert bundle.grid.M == 5
        assert bundle.certified
        worst = max(abs(F(i, 1000) - evaluate_implicit(bundle, [F(i, 1000)]))
                    for i in range(1001))
        assert worst <= F(1, 6)

    def test_two_dimensional_mean_certified_at_quarter(self):
        bundle = build_approximator(linear_spec(2), F(1, 4))
        assert bundle.grid.M == 4
        worst = max(
            abs(F(i + j, 400) - evaluate_implicit(bundle, (F(i, 200), F(j, 200))))
            for i in range(0, 201, 4) for j in range(0, 201, 4))
        assert worst <= F(1, 5)

    def test_note_and_override(self):
        spec = linear_spec()
        assert build_approximator(spec, F(1, 5)).note == NOTE_CERTIFIED
        forced = build_approximator(spec, F(1, 5), M_override=3)
        assert forced.grid.M == 3
        assert forced.note == NOTE_USER_M
        assert not forced.certified  # 1/4 > 1/5

    def test_certificate_dict_fields(self):
        bundle = build_approximator(linear_spec(), F(1, 5))
        cert = bundle.certificate_dict()
        assert cert["d"] == 1 and cert["M"] == 5
        assert cert["beta"] == 1.0 and cert["K"] == 1.0 and cert["F"] == 1.0
        assert cert["bound"] == pytest.approx(1 / 6)
        assert cert["certified"] is True and cert["materialized"] is True

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            build_approximator(linear_spec(), 0)

    @pytest.mark.parametrize("constants, message", [
        ((1, 10**400, 1), "K rounds to inf in binary64"),
        ((1, "1e-400", 1), "K rounds to 0.0 in binary64"),
        ((1, 1, "1e400"), "F rounds to inf in binary64"),
        (("1e-400", 1, 1), "beta rounds to 0.0 in binary64"),
    ])
    def test_constants_beyond_binary64_refused(self, constants, message):
        with pytest.raises(DomainError, match=message):
            HolderFunctionSpec(lambda x: F(0), 1, *constants)

    @pytest.mark.parametrize("eps, message", [
        ("1e400", "epsilon rounds to inf in binary64"),
        ("1e-400", "epsilon rounds to 0.0 in binary64"),
    ])
    def test_epsilon_beyond_binary64_refused(self, eps, message):
        with pytest.raises(DomainError, match=message):
            build_approximator(linear_spec(), eps)

    def test_spec_and_epsilon_stay_exact(self):
        spec = HolderFunctionSpec(lambda x: F(0), 1, 0.5, "7/3", 1)
        assert (spec.beta, spec.K, spec.F) == (F(1, 2), F(7, 3), F(1))
        assert all(type(v) is Fraction for v in (spec.beta, spec.K, spec.F))
        assert build_approximator(spec, "1/3", M_override=48).epsilon == F(1, 3)

    def test_bound_equal_to_epsilon_is_certified(self):
        # K/(M+1)^beta = (7/3)/49^(1/2) = 1/3 exactly; binary64 reads 0.33333333333333337
        root = dataclasses.replace(builtin_target("root", 2), K=F(7, 3))
        assert build_approximator(root, F(1, 3)).grid.M == 49
        assert build_approximator(root, F(1, 3), M_override=48).certified
        assert not build_approximator(root, F(1, 3), M_override=47).certified


def test_certified_matches_bench_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    epsilons = [F(1, 7), F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)]
    for beta in (F(1), F(1, 2), F(1, 3)):
        for K in (F(1, 3), F(1, 2), F(1), F(7, 3), F(5, 2), F(3)):
            spec = HolderFunctionSpec(lambda x: F(0), 1, beta, K, 1)
            for eps in epsilons:
                for M in range(1, 60):
                    bundle = ApproximatorBundle(GridSpec(1, M), eps, (), spec, "")
                    assert bundle.certified == reference.certifies(K, beta, eps, M), \
                        (K, beta, eps, M)


def test_certified_matches_bench_reference_at_near_ties(monkeypatch):
    """K/(M+1)^beta = eps exactly where M+1 = m^(1/beta): such an eps
    certifies, and so does one 10^-30 above it, while one 10^-30 below
    does not, nor does M one smaller."""
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    cases = 0
    for n in (1, 2, 3):
        beta = F(1, n)
        for K in (F(1, 3), F(1), F(7, 3), F(5, 2)):
            spec = HolderFunctionSpec(lambda x: F(0), 1, beta, K, 1)
            for m in range(2, 12):
                cases += 1
                for eps in (K / m, K / m - F(1, 10**30), K / m + F(1, 10**30)):
                    for M in {m ** n - 1, max(1, m ** n - 2)}:
                        bundle = ApproximatorBundle(GridSpec(1, M), eps, (), spec, "")
                        assert bundle.certified == reference.certifies(K, beta, eps, M), \
                            (K, beta, eps, M)
                assert ApproximatorBundle(GridSpec(1, m ** n - 1), K / m, (), spec, "").certified
    assert cases == 120


def test_holder_sign_matches_bench_reference(monkeypatch):
    """holder_sign(err, K, 1/(M+1), beta) <= 0 is within_holder_bound for
    integer 1/beta, ties (err = K/m at M+1 = m^(1/beta)) included."""
    monkeypatch.syspath_prepend(str(BENCH))
    reference = importlib.import_module("reference")
    for beta in (F(1), F(1, 2), F(1, 3), F(1, 4)):
        for K in (F(1, 2), F(1), F(7, 3)):
            errors = [F(j, 64) for j in range(81)] + [K / m for m in range(1, 7)]
            for M in range(1, 31):
                for err in errors:
                    assert ((qlower.approx.holder_sign(err, K, F(1, M + 1), beta) <= 0)
                            == reference.within_holder_bound(err, K, beta, M)), (err, K, beta, M)


class TestHolderSign:
    """holder_sign decides lhs against K*t^beta exactly on each step."""

    def test_signs_on_each_step(self):
        sign = qlower.approx.holder_sign
        # t = s^r: t^beta is rational, and ties are decided as they are
        assert sign(F(0), F(1), F(0), F(1, 2)) == 0
        assert sign(F(3), F(3), F(1), F(1, 3)) == 0
        assert sign(F(1, 2), F(1), F(1, 4), F(1, 2)) == 0
        assert sign(F(1, 2) + F(1, 10**40), F(1), F(1, 4), F(1, 2)) == 1
        assert sign(F(16, 27), F(2), F(16, 81), F(3, 4)) == 0  # (16/81)^(3/4) = 8/27
        assert sign(F(15, 27), F(2), F(16, 81), F(3, 4)) == -1
        # the bracket K*t < K*t^beta < K
        assert sign(F(1, 2), F(1), F(1, 2), F(1, 3)) == -1
        assert sign(F(1), F(1), F(1, 2), F(1, 3)) == 1
        # integer powers: 2^(-1/2) lies between 7071/10^4 and 7072/10^4
        assert sign(F(7071, 10**4), F(1), F(1, 2), F(1, 2)) == -1
        assert sign(F(7072, 10**4), F(1), F(1, 2), F(1, 2)) == 1
        # logarithms: beta with a 2^52 denominator
        beta = F(0.7071067811865476)
        assert sign(F(6125, 10**4), F(1), F(1, 2), beta) == -1  # 2^(-beta) = 0.61254...
        assert sign(F(6126, 10**4), F(1), F(1, 2), beta) == 1

    def test_bracket_keeps_boundary_pairs_off_the_logarithms(self, monkeypatch):
        # lhs = K*t and lhs = K are decided by the bracket for a beta with a
        # 2^52 denominator; so is every pair of mean, where |f(x)-f(y)| = K*t
        monkeypatch.setattr(qlower.approx, "localcontext", None)  # a call raises
        sign, beta = qlower.approx.holder_sign, F(0.7071067811865476)
        assert sign(F(3, 2), F(3), F(1, 2), beta) == -1
        assert sign(F(3), F(3), F(1, 2), beta) == 1
        qlower.harness.check_holder(dataclasses.replace(builtin_target("mean", 1), beta=beta))

    def test_tie_too_large_for_integer_powers_ends(self):
        # (1/w)^2 against (1/w^2)^1 has over _EXACT_BITS bits; the tie is
        # found as t = (1/w)^2, so the logarithms never see it.
        w = 3 ** 12000
        sign = qlower.approx.holder_sign
        assert sign(F(1, w), F(1), F(1, w * w), F(1, 2)) == 0
        assert sign(F(1, w) + F(1, w * w), F(1), F(1, w * w), F(1, 2)) == 1
        assert sign(F(1, w) - F(1, w * w), F(1), F(1, w * w), F(1, 2)) == -1


class TestCertifiedBeyondTheSeedLimit:
    """certified needs no resolution: it is decided for any M, even where
    choose_resolution refuses one above 2^50."""

    def test_user_resolution_far_below_the_certifying_one(self):
        spec = HolderFunctionSpec(lambda x: F(0), 1, F(1, 10**9), 1, 1)  # N = 2^(10^9)
        bundle = build_approximator(spec, F(1, 2), M_override=5)
        assert bundle.certified is False
        assert bundle.certificate_dict()["certified"] is False

    def test_resolutions_around_2_to_60(self):
        beta = F(1, 2) - F(1, 2**60)  # N = 2^(30/beta), a little above 2^60
        spec = HolderFunctionSpec(lambda x: F(0), 1, beta, 2**30, 1)
        with pytest.raises(DomainError, match="resolution too large"):
            choose_resolution(spec.K, beta, 1)
        certified = [ApproximatorBundle(GridSpec(1, M), F(1), (), spec, "").certified
                     for M in (2**60 - 1, 2**61 - 1)]
        assert certified == [False, True]


class TestOneHot:
    def test_selector_activation_is_one_hot_at_cell_index(self):
        rng = random.Random(405)
        for d, M in ((1, 5), (2, 3)):
            bundle = build_approximator(linear_spec(d), 1, M_override=M)
            for _ in range(50):
                x = [F(rng.randrange(0, 1001), 1000) for _ in range(d)]
                trace, _ = forward_trace(bundle.network, x)
                onehot = trace[1]
                k = cell_index(x, bundle.grid)
                assert sum(onehot) == 1 and onehot[k] == 1

    def test_piecewise_constant_within_a_cell(self):
        bundle = build_approximator(linear_spec(), F(1, 4))
        h = F(1, bundle.grid.M + 1)
        for k in range(bundle.grid.cell_count):
            base = bundle.grid.representative(k)[0]
            inside = [base, base + h / 3, base + h - F(1, 10**6)]
            values = {evaluate(bundle.network, [v]) for v in inside}
            assert len(values) == 1


class TestEvaluateImplicit:
    def test_representative_values_exact(self):
        bundle = build_approximator(linear_spec(), F(1, 5))
        for k in range(bundle.grid.cell_count):
            x = bundle.grid.representative(k)
            assert evaluate_implicit(bundle, x) == bundle.readout[k]

    def test_frozen_example(self):
        bundle = build_approximator(linear_spec(), F(1, 5), M_override=4)
        assert evaluate_implicit(bundle, [0.3]) == F(1, 5)

    def test_agrees_with_materialized_network(self):
        rng = random.Random(406)
        bundle = build_approximator(linear_spec(2), F(1, 4))
        base = bundle.grid.M + 1
        points = [[F(rng.randrange(0, 257), 256) for _ in range(2)] for _ in range(200)]
        # every threshold j/(M+1), and the closed end 1, on each axis
        edges = [F(j, base) for j in range(1, base)] + [F(1)]
        points += [[a, b] for a in edges for b in [F(0), *edges]]
        points += [[F(0), b] for b in edges]
        for x in points:
            assert evaluate_implicit(bundle, x) == evaluate(bundle.network, x)

    def test_float_mode_converts_result(self):
        bundle = build_approximator(linear_spec(), F(1, 5), M_override=4)
        value = evaluate_implicit(bundle, [0.3])
        assert value == F(1, 5) and round_binary64(value) == 0.2


class TestCapacityCap:
    def test_cap_raises_with_details(self, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "100")
        with pytest.raises(CapacityError) as err:
            build_selector_matrix(GridSpec(2, 9))
        assert err.value.required == 100 * 19
        assert err.value.cap == 100

    def test_readout_over_cap_fails_before_building(self, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "4")
        monkeypatch.setattr(qlower.approx, "build_readout", None)  # never reached
        with pytest.raises(CapacityError) as err:
            build_approximator(linear_spec(), F(1, 4))
        assert (err.value.required, err.value.cap) == (5, 4)

    def test_unprintable_size_is_reported_by_bit_length(self):
        # 3^20000 + 1 cells: more decimal digits than str() of an int allows
        spec = HolderFunctionSpec(lambda x: F(0), 1, F(1, 20000), 3, 1)
        with pytest.raises(CapacityError) as err:
            build_approximator(spec, 1)
        assert err.value.required == "at least 2^31699"
        assert str(err.value).startswith("readout needs at least 2^31699 cells")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit: every size prints
        try:
            with pytest.raises(CapacityError) as err:
                build_approximator(spec, 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert err.value.required == 3**20000 + 1

    def test_hostile_dimension_refused_without_counting_cells(self, monkeypatch):
        # 3^(10^7) cells: (M+1)^d >= 2^(d*floor(log2(M+1))) is already
        # unprintable, so (M+1)^d, seconds of work, is never computed
        def refuse(grid):
            raise AssertionError("cell count computed")
        monkeypatch.setattr(GridSpec, "cell_count", property(refuse))
        with pytest.raises(CapacityError) as err:
            build_approximator(linear_spec(10**7), F(1, 2))
        assert err.value.required == "at least 2^10000000"
        assert str(err.value).startswith("readout needs at least 2^10000000 cells")

    @pytest.mark.parametrize("d, required", [
        (10, 3**10),            # over the cap, printed exactly
        (5000, 3**5000),        # 2^5000 is printable, so 3^5000 is computed
        (20000, "at least 2^20000"),
    ])
    def test_over_cap_sizes_printed_exactly_when_printable(self, monkeypatch, d, required):
        monkeypatch.setenv("QLOWER_CAP", "100")
        with pytest.raises(CapacityError) as err:
            build_approximator(linear_spec(d), F(1, 2))
        assert err.value.required == required

    def test_over_cap_bundle_is_implicit_only(self, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "500")
        bundle = build_approximator(linear_spec(2), F(1, 9))
        assert bundle.network is None
        assert bundle.certificate_dict()["materialized"] is False
        assert "implicit" in bundle.note
        assert bundle.certified  # the bound does not need materialization
        assert evaluate_implicit(bundle, [F(1, 2), F(1, 2)]) == F(1, 2)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "50")
        assert selector_cap() == 50
        with pytest.raises(CapacityError):
            build_selector_matrix(GridSpec(2, 9))
        monkeypatch.setenv("QLOWER_CAP", "zero")
        with pytest.raises(DomainError):
            selector_cap()
        monkeypatch.setenv("QLOWER_CAP", "-3")
        with pytest.raises(DomainError):
            selector_cap()


class TestBundleFromNetwork:
    def test_round_trip_through_serialization(self):
        bundle = build_approximator(linear_spec(2), F(1, 3))
        again = bundle_from_network(deserialize(serialize(bundle.network)))
        assert again.grid == bundle.grid
        assert again.readout == bundle.readout
        x = [F(2, 7), F(5, 9)]
        assert evaluate_implicit(again, x) == evaluate_implicit(bundle, x)

    def test_output_scale_folds_into_readout(self):
        bundle = build_approximator(linear_spec(), F(1, 5))
        net = bundle.network
        scaled = type(net)(net.input_dim, net.matrices, net.activation, F(1, 2))
        again = bundle_from_network(deserialize(serialize(scaled)))
        assert again.readout == tuple(v / 2 for v in bundle.readout)

    def test_read_back_bundle_has_no_certificate(self):
        bundle = bundle_from_network(build_approximator(linear_spec(), F(1, 5)).network)
        assert bundle.epsilon is None and bundle.holder is None
        assert bundle.certified is False
        assert bundle.certificate_dict()["epsilon"] is None

    def test_rejects_non_approximator_shapes(self, example_net):
        with pytest.raises(DomainError):
            bundle_from_network(example_net)

    def test_rejects_tampered_network(self, tampered_net):
        with pytest.raises(DomainError) as err:
            bundle_from_network(tampered_net)
        assert "not the canonical approximator construction" in str(err.value)

    def test_tampered_network_computes_another_function(self, tampered_net):
        # Why the readout alone cannot be trusted: the tampered net keeps
        # the readout but disagrees with the approximator somewhere.
        net = build_approximator(linear_spec(), F(1, 4)).network
        assert tampered_net.matrices[2] == net.matrices[2]
        assert any(evaluate(tampered_net, [F(i, 20)]) != evaluate(net, [F(i, 20)])
                   for i in range(21))

    def test_check_builds_no_selector(self, monkeypatch, tampered_net):
        net = build_approximator(linear_spec(2), F(1, 3)).network
        monkeypatch.setenv("QLOWER_CAP", "10")
        forbid_selector_builds(monkeypatch)
        assert bundle_from_network(net).readout == net.matrices[2].entries
        with pytest.raises(DomainError):
            bundle_from_network(tampered_net)


class TestDerivedNetwork:
    def test_bundle_fields(self):
        assert [f.name for f in dataclasses.fields(ApproximatorBundle)] == [
            "grid", "epsilon", "readout", "holder", "note"]

    def test_network_built_once(self, monkeypatch):
        built = []

        def counting(grid):
            built.append(grid)
            return build_selector_matrix(grid)

        monkeypatch.setattr(qlower.approx, "build_selector_matrix", counting)
        bundle = build_approximator(linear_spec(2), F(1, 3))
        assert built == []
        net = bundle.network
        assert bundle.network is net and built == [bundle.grid]
        assert net.matrices[2].entries == bundle.readout

    def test_selector_plan_comes_from_the_grid(self, monkeypatch):
        planned = []

        def recording(module):
            real = module.plan_layer

            def plan_layer(mat, merged):
                planned.append((module.__name__, mat))
                return real(mat, merged)
            monkeypatch.setattr(module, "plan_layer", plan_layer)

        recording(qlower.approx)
        recording(qlower.network)
        bundle = build_approximator(linear_spec(2), F(1, 3))
        net = bundle.network
        x = [F(2, 7), F(5, 9)]
        assert evaluate(net, x) == evaluate_implicit(bundle, x)
        threshold, _, readout = net.matrices
        assert planned == [("qlower.approx", threshold), ("qlower.approx", readout)]

    def test_root_selector_plan_holds_one_part(self):
        # root at d=2, eps=1/10: 10,201 selector rows of 201 columns, whose
        # plan is the 200-column tail once and one constant per row.
        bundle = build_approximator(builtin_target("root", 2), F(1, 10))
        assert bundle.grid.M == 100
        selector = bundle.network._plan[1]
        (part, constants), = selector.groups
        assert selector.gather is None
        assert part == qlower.approx._selector_tail(bundle.grid) and len(part) == 200
        assert list(constants) == list(range(10_201))

    def test_network_holds_no_selector_entries(self):
        # The 2,050,401 selector entries took 16.7 MB as a tuple; the view
        # derives them from the grid, and evaluate reads none of them.
        spec = builtin_target("root", 2)
        points = [[F(1, 3), F(2, 7)], [0, 0], [1, F(99, 100)]]
        tracemalloc.start()
        try:
            bundle = build_approximator(spec, F(1, 10))
            values = [evaluate(bundle.network, x) for x in points]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == [evaluate_implicit(bundle, x) for x in points]
        assert peak < 2_000_000
        assert "heads" not in vars(bundle.network.matrices[1].entries)


VIEW_GRIDS = [GridSpec(d, M) for d, M in ((1, 1), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2))]


def dense_selector(grid):
    """The selector's entries as a plain tuple, from the formula: row r is
    r, then -(M+1)^(i-1) in each of axis i's M columns."""
    tail = [-(grid.M + 1) ** i for i in range(grid.d) for _ in range(grid.M)]
    return tuple(F(v) for r in range(grid.cell_count) for v in [r, *tail])


def bound_or_none(n):
    return st.none() | st.integers(-n - 5, n + 5)


class TestSelectorView:
    """build_selector_matrix's entries are a view of the grid that must act
    as the tuple of its entries everywhere."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(VIEW_GRIDS), st.data())
    def test_indexing_matches_the_tuple(self, grid, data):
        view, want = build_selector_matrix(grid).entries, dense_selector(grid)
        n = len(want)
        i = data.draw(st.integers(-n - 5, n + 5), label="index")
        if -n <= i < n:
            assert view[i] == want[i]
        else:
            with pytest.raises(IndexError):
                view[i]
        step = data.draw(st.none() | st.integers(-7, 7).filter(bool), label="step")
        s = slice(data.draw(bound_or_none(n), label="start"),
                  data.draw(bound_or_none(n), label="stop"), step)
        got = view[s]
        assert type(got) is tuple and got == want[s]

    @pytest.mark.parametrize("grid", VIEW_GRIDS, ids=str)
    def test_sequence_protocol_matches_the_tuple(self, grid):
        v = build_selector_matrix(grid)
        view, want = v.entries, dense_selector(grid)
        assert len(view) == len(want) and tuple(view) == want and list(view) == list(want)
        assert [v.row(r) for r in range(v.rows)] == [
            want[r * v.cols:(r + 1) * v.cols] for r in range(v.rows)]
        assert view == want and want == view and not view != want and view == view
        assert hash(view) == hash(want)
        assert view == build_selector_matrix(grid).entries
        assert view != want[:-1] and want[:-1] != view
        assert view != want[:-1] + (F(7),) and view != list(want)
        top = grid.cell_count - 1
        assert F(top) in view and top in view and F(top + 1) not in view
        assert view.index(F(top)) == want.index(F(top)) and view.count(-1) == want.count(-1)

    def test_reads_return_the_same_objects(self):
        view = build_selector_matrix(GridSpec(2, 3)).entries
        assert list(map(id, view)) == list(map(id, view))
        assert all(a is b for a, b in zip(view[7:40], view[7:40]))
        # 16 row constants and one shared tail of 6
        assert len({id(e) for e in view}) == 16 + 6

    @pytest.mark.parametrize("grid", VIEW_GRIDS, ids=str)
    def test_consumers_agree_with_the_dense_tuple(self, grid):
        net = build_approximator(linear_spec(grid.d), F(1, 2), M_override=grid.M).network
        w, v, u = net.matrices
        dense_v = WeightMatrix(v.rows, v.cols, dense_selector(grid))
        dense = Network(grid.d, (w, dense_v, u), ActivationKind.INDICATOR01)
        assert type(dense_v.entries) is tuple and type(v.entries) is not tuple
        for ws in WeightSet:
            assert validate(net, ws) == validate(dense, ws)
        assert sparsity(net) == sparsity(dense)
        assert v.nonzero_count() == dense_v.nonzero_count()
        assert v.scaled_by(F(-2, 3)) == dense_v.scaled_by(F(-2, 3))
        assert plan_layer(v, None) == plan_layer(dense_v, None)
        seeded = net._plan[1]  # its constants are a range
        assert plan_layer(v, None) == seeded._replace(
            groups=tuple((part, tuple(constants)) for part, constants in seeded.groups))
        assert serialize(net) == serialize(dense)
        assert net == dense and deserialize(serialize(net)) == net
        got, want = bundle_from_network(net), bundle_from_network(dense)
        assert (got.grid, got.readout) == (want.grid, want.readout)

    @pytest.mark.parametrize("r, c, value, message", [
        (0, 0, F(4), "selector entry (0, 0) is 4, expected 0"),
        (0, 3, F(-2), "selector entry (0, 3) is -2, expected -1"),
        (3, 2, F(1, 2), "selector entry (3, 2) is 1/2, expected -1"),
        (4, 4, F(-5), "selector entry (4, 4) is -5, expected -1"),
    ])
    def test_first_differing_selector_entry_is_named(self, r, c, value, message):
        net = build_approximator(linear_spec(), F(1, 4)).network  # M = 4
        w, v, u = net.matrices
        entries = list(v.entries)
        entries[r * v.cols + c] = value
        tampered = Network(1, (w, WeightMatrix(v.rows, v.cols, tuple(entries)), u),
                           ActivationKind.INDICATOR01)
        with pytest.raises(DomainError) as err:
            bundle_from_network(tampered)
        assert str(err.value).startswith(message + ": not the canonical")
