import importlib
import json
import math
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import qlower.network
from hypothesis import given, settings
from hypothesis import strategies as st

from qlower import (
    ActivationKind,
    DimensionError,
    DomainError,
    HolderFunctionSpec,
    Network,
    ParseError,
    WeightMatrix,
    WeightSet,
    binarize,
    build_approximator,
    builtin_target,
    deserialize,
    evaluate,
    evaluate_implicit,
    forward_trace,
    load_network,
    network_from_dict,
    random_network,
    round_binary64,
    save_network,
    SparsityReport,
    serialize,
    sparsity,
    ternarize,
    to_unit_weights,
    validate,
)
from qlower.network import forward_integers
from qlower.rationals import describe_number, format_rational
from conftest import mat, relu_net
from test_acceptance import CORPUS_SIZE, _lowered, _make_source

BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestWorkedExamples:
    def test_single_linear_layer_is_identity(self, identity_net):
        assert evaluate(identity_net, [Fraction(7, 10)]) == Fraction(7, 10)

    def test_two_layer_relu_composition(self, example_net):
        # relu(4/5 - 1/2) - (1/2)(4/5) = 3/10 - 2/5 = -1/10
        assert evaluate(example_net, ["4/5"]) == Fraction(-1, 10)

    def test_indicator_of_interior_point_is_one(self):
        net = Network(1, (mat([[0, 1]]), mat([[1]])), ActivationKind.INDICATOR01)
        assert evaluate(net, ["7/10"]) == 1
        assert evaluate(net, [1]) == 0  # 1 is outside [0, 1)

    def test_forward_trace_exposes_hidden_activations(self, example_net):
        trace, out = forward_trace(example_net, ["4/5"])
        assert trace == [(Fraction(3, 10), Fraction(4, 5))]
        assert out == Fraction(-1, 10)

    def test_output_scale_multiplies_result(self, example_net):
        scaled = Network(1, example_net.matrices, example_net.activation,
                         Fraction(1, 4))
        assert evaluate(scaled, ["4/5"]) == Fraction(-1, 40)


@pytest.fixture
def reference(monkeypatch):
    """bench/reference.py: a plain-Fraction interpreter sharing no code with qlower."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("reference")


def reference_trace(reference, net, x):
    """Post-activation values of every hidden layer, by the reference."""
    input_dim, activation, _, mats = reference.plain_network(net)
    trace = []
    for k in range(net.depth):
        pre = reference.evaluate((input_dim, activation, Fraction(1), mats[:k + 1]), x)
        if activation == "relu":
            trace.append(tuple(max(v, Fraction(0)) for v in pre))
        else:
            trace.append(tuple(Fraction(int(0 <= v < 1)) for v in pre))
    return trace


def expanded_rows(layer):
    """A plan layer's rows in full, in the order the plan computes them."""
    return tuple((c, *part) for part, constants in layer.groups for c in constants)


def plan_widths(net):
    return tuple(len(expanded_rows(layer)) for layer in net._plan)


class TestEvaluationPlan:
    """Exact evaluation runs on distinct rows only; every value returned
    must still be the plain formula's, unit by unit."""

    def assert_matches_reference(self, reference, net, points):
        plain = reference.plain_network(net)
        for x in points:
            trace, out = forward_trace(net, x)
            assert trace == reference_trace(reference, net, x)
            want = reference.evaluate(plain, x)
            assert evaluate(net, x) == (want[0] if len(want) == 1 else tuple(want))
            assert out == evaluate(net, x)

    def test_lowered_trace_matches_reference_at_every_layer(self, reference):
        rng = random.Random(7)
        for d, depth in ((1, 1), (2, 2), (3, 1)):
            source = random_network(rng, d, depth, 5)
            lowered, _ = binarize(ternarize(source)[0])
            assert any(layer.gather is not None for layer in lowered._plan)
            points = [[Fraction(k, 3)] * d for k in range(4)]
            points.append([Fraction(j + 1, d + 2) for j in range(d)])
            self.assert_matches_reference(reference, lowered, points)
            trace, _ = forward_trace(lowered, [Fraction(1, 2)] * d)
            assert [len(t) for t in trace] == [m.rows for m in lowered.matrices[:-1]]

    def test_indicator_net_with_repeated_rows(self, reference):
        net = Network(2, (
            mat([[0, 1, 0], ["-1/2", 1, 0], [0, 1, 0], [0, 0, 1], ["-1/2", 1, 0]]),
            mat([[1, 0, 0, 1, 0], [0, 1, 1, 0, 0], ["1/2", 0, 0, 0, "1/2"]]),
            mat([[1, 2, 3]]),
        ), ActivationKind.INDICATOR01)
        assert plan_widths(net) == (3, 3, 1)
        # (0, 2, 0) and (-1, 2, 0) share their part, which appears first,
        # and the row (0, 0, 2) follows as a part with one constant, so the
        # next layer reads the merged units in that order.
        assert net._plan[0].groups == (((2, 0), (0, -1)), ((0, 2), (0,)))
        assert net._plan[0].gather == (0, 1, 0, 2, 1)
        points = [[Fraction(a, 4), Fraction(b, 4)] for a in range(5) for b in range(5)]
        self.assert_matches_reference(reference, net, points)

    @pytest.mark.parametrize("activation", list(ActivationKind))
    def test_rows_that_share_a_part_differ_in_their_constant(self, reference, activation):
        # Layer 0 computes x, x, x - 1/2, 1 - x and 1/2 - x: two parts,
        # 2x and -2x, with two constants each. Units 0 and 1 merge, so
        # layer 1's columns 0 and 1 fold into its column 0: its first three
        # rows all read (c, 2, 0, 0), with c = 1, 2 and 2, and its last row
        # has a part of its own.
        net = Network(1, (
            mat([[0, 1], [0, 1], ["-1/2", 1], [1, -1], ["1/2", -1]]),
            mat([[0, 1, 2, 0, 0], [1, 1, 2, 0, 0], [2, 0, 2, 0, 0], [1, 0, 0, 1, 1]]),
            mat([[1, -1, 3, 2]]),
        ), activation)
        first, second, _ = net._plan
        assert first.groups == (((2,), (0, -1)), ((-2,), (2, 1)))
        assert first.gather == (0, 0, 1, 2, 3)
        assert second.groups == (((2, 0, 0), (1, 2)), ((0, 1, 1), (1,)))
        assert second.gather == (0, 1, 1, 2)
        points = [[Fraction(k, 8)] for k in range(9)] + [[Fraction(1, 3)], [Fraction(5, 7)]]
        self.assert_matches_reference(reference, net, points)

    def test_identical_output_rows(self, reference):
        net = relu_net(1, [["-1/2", 1], [0, 1]], [[1, "-1/2"], [1, "-1/2"]])
        assert net._plan[-1].gather == (0, 0)
        assert evaluate(net, ["4/5"]) == (Fraction(-1, 10), Fraction(-1, 10))
        self.assert_matches_reference(reference, net, [[Fraction(k, 5)] for k in range(6)])

    def test_rows_equal_only_after_column_merge(self, reference):
        # Units 0 and 1 compute the same x, so rows (1, 0) and (0, 1) of the
        # next matrix both read 1 on the merged unit and compute the same value.
        net = relu_net(1, [[0, 1], [0, 1]], [[1, 0], [0, 1]], [[1, -2]])
        assert plan_widths(net) == (1, 1, 1)
        assert net._plan[1].gather == (0, 0)
        self.assert_matches_reference(reference, net, [[Fraction(k, 4)] for k in range(5)])
        assert evaluate(net, ["1/2"]) == Fraction(-1, 2)

    def test_binarized_plan_widths(self):
        rng = random.Random(3)
        for d, depth in ((1, 1), (2, 3), (3, 2)):
            source = random_network(rng, d, depth, 8)
            lowered, _ = binarize(ternarize(source)[0])
            widths = plan_widths(lowered)
            assert widths[:5] == (d + 1,) * 5  # binary then ternary prefix copies of (1, x)
            body = [m.rows for m in source.matrices]
            assert len(widths) == 5 + len(body)
            assert all(w <= b for w, b in zip(widths[5:], body))

    def test_approximator_plan_has_no_gather_maps(self):
        mean = HolderFunctionSpec(lambda x: sum(x, Fraction(0)) / 2, 2, 1, 1, 1)
        net = build_approximator(mean, Fraction(1, 4)).network
        assert [layer.gather for layer in net._plan] == [None, None, None]
        assert plan_widths(net) == tuple(m.rows for m in net.matrices)
        # The threshold rows of each axis share one part, and all selector
        # rows share the tail; so does the plan of the same net rebuilt.
        rebuilt = Network(2, net.matrices, net.activation)
        for plan in (net._plan, rebuilt._plan):
            assert [[len(constants) for _, constants in layer.groups] for layer in plan] \
                == [[1, 4, 4], [25], [1]]
            assert [layer.gather for layer in plan] == [None, None, None]


def one_by_one(net, points, den):
    """forward_integers run on each point alone, as one batch result."""
    runs = [forward_integers(net, [p], den) for p in points]
    assert len({d for _, d in runs}) == 1
    return [out for (out,), _ in runs], runs[0][1]


LANE_BATCHES = [1, 2, 127, 128, 129, 257]
SMALL_WEIGHTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 4)]
BIG_FRACTIONS = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))


@st.composite
def lane_nets(draw):
    """ReLU and indicator nets of 0-3 hidden layers; entries repeat small
    values, so rows merge and share parts, or are large unrestricted."""
    activation = draw(st.sampled_from(list(ActivationKind)))
    d = draw(st.integers(1, 3))
    widths = [d + 1] + draw(st.lists(st.integers(1, 5), max_size=3)) + [draw(st.integers(1, 3))]
    entry = st.one_of(st.sampled_from(SMALL_WEIGHTS), BIG_FRACTIONS)
    matrices = tuple(WeightMatrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols,
                                                                  max_size=rows * cols))))
                     for cols, rows in zip(widths, widths[1:]))
    scale = draw(st.one_of(st.just(Fraction(1)), BIG_FRACTIONS))
    return Network(d, matrices, activation, scale)


class TestLanes:
    """A batch packed into lanes gives what each of its points gives alone."""

    @settings(max_examples=60, deadline=None)
    @given(lane_nets(), st.sampled_from(LANE_BATCHES), st.integers(1, 10**25),
           st.integers(0, 2**32 - 1))
    def test_batch_equals_points_run_alone(self, net, size, den, seed):
        rng = random.Random(seed)
        spread = rng.choice([1, 2, 10**30])  # points inside and far outside the cube
        points = [[rng.randint(-spread * den, spread * den) for _ in range(net.input_dim)]
                  for _ in range(size)]
        assert forward_integers(net, points, den) == one_by_one(net, points, den)

    @pytest.mark.parametrize("size", LANE_BATCHES)
    def test_lowered_net_on_dyadic_points(self, size):
        source = random_network(random.Random(7), 3, 3, 8)
        rng = random.Random(size)
        points = [[rng.randrange(257) for _ in range(3)] for _ in range(size)]
        for net in (source, binarize(ternarize(source)[0])[0]):
            assert forward_integers(net, points, 256) == one_by_one(net, points, 256)

    def test_pre_activation_at_the_bound(self):
        # Inputs reach 127 and the first layer's rows have l1 norm 2, so the
        # bound is 254, of 8 bits: the lanes take 16. The point 127/127
        # reaches +254 on one unit and -254 on the other.
        net = relu_net(1, [[1, 1], [-1, -1]], [[1, 0]])
        points = [[p] for p in range(-127, 128)]
        outs, den = forward_integers(net, points, 127)
        assert (outs, den) == one_by_one(net, points, 127)
        assert outs[-1] == (254,) and outs[0] == (0,)

    def test_indicator_lanes_at_zero_and_at_den(self):
        # Unit 0 takes p and unit 1 takes p - 64, over den 64: p = 0 and
        # p = 64 put lanes at exactly 0 and exactly den in one batch.
        net = Network(1, (mat([[0, 1], [-1, 1]]), mat([[1, 2]])), ActivationKind.INDICATOR01)
        points = [[p] for p in range(-64, 65)]
        outs, den = forward_integers(net, points, 64)
        assert (outs, den) == one_by_one(net, points, 64)
        assert den == 1
        assert [outs[p + 64][0] for p in (-1, 0, 63, 64)] == [0, 1, 1, 2]

    def test_trace_needs_one_point(self):
        net = relu_net(1, [[1, 1]], [[1]])
        with pytest.raises(ValueError, match="single point"):
            forward_integers(net, [[1], [2]], 1, trace=[])


class TestShapes:
    def test_depth_width_output(self, example_net):
        assert example_net.depth == 1
        assert example_net.width_vector == (2, 2, 1)
        assert example_net.width_max == 2
        assert example_net.output_dim == 1

    def test_layer0_must_have_input_dim_plus_one_columns(self):
        with pytest.raises(DimensionError):
            Network(2, (mat([[0, 1]]),), ActivationKind.RELU)

    def test_chained_shapes_must_agree(self):
        with pytest.raises(DimensionError) as err:
            Network(1, (mat([[0, 1]]), mat([[1, 1]])), ActivationKind.RELU)
        assert "layer 1" in str(err.value)

    def test_matrix_entry_count_checked(self):
        with pytest.raises(DimensionError):
            WeightMatrix(2, 2, (Fraction(0),) * 3)

    @pytest.mark.parametrize("rows, cols, entries", [
        (-1, -2, ["1", "1"]),
        (0, 2, []),
        (1, 0, []),
    ])
    def test_nonpositive_shape_names_its_layer(self, rows, cols, entries):
        payload = row_payload("0", "1")
        payload["matrices"].insert(0, {"rows": rows, "cols": cols, "entries": entries})
        with pytest.raises(DimensionError) as err:
            network_from_dict(payload)
        assert err.value.layer == 0
        assert f"matrix 0 declares {rows}x{cols}" in str(err.value)

    def test_vector_length_checked_on_evaluate(self, example_net):
        with pytest.raises(DimensionError):
            evaluate(example_net, [Fraction(1, 2), Fraction(1, 2)])

    @pytest.mark.parametrize("entry", [0.5, 1.0, "1/2", None, True])
    def test_entry_that_is_not_a_rational_refused(self, tmp_path, entry):
        # The constructor leaves the entries as given; every reader refuses
        # them with ParseError, rather than computing with them or writing
        # a file that load_network refuses.
        def net():
            return Network(1, (WeightMatrix(1, 2, (entry, 1)),), ActivationKind.RELU)

        message = f"entry must be a Fraction or an int, got {entry!r}"
        for read in (lambda n: evaluate(n, [Fraction(1, 2)]), serialize,
                     lambda n: validate(n, WeightSet.BASE_A),
                     lambda n: n.matrices[0].scaled_by(2)):
            with pytest.raises(ParseError) as err:
                read(net())
            assert str(err.value) == message
        path = tmp_path / "net.json"
        with pytest.raises(ParseError):
            save_network(net(), path)
        assert not path.exists()


class TestActivations:
    @pytest.mark.parametrize("kind, pre, expected", [
        (ActivationKind.RELU, "-3/2", 0),
        (ActivationKind.RELU, "3/2", Fraction(3, 2)),
        (ActivationKind.INDICATOR01, "0", 1),
        (ActivationKind.INDICATOR01, "99/100", 1),
        (ActivationKind.INDICATOR01, "1", 0),
        (ActivationKind.INDICATOR01, "-1/100", 0),
    ])
    def test_scalar_semantics(self, kind, pre, expected):
        # One hidden unit computing x - 1/2, then a pass-through output:
        # the hidden pre-activation at x = pre + 1/2 is exactly `pre`.
        net = Network(1, (mat([["-1/2", 1]]), mat([[1]])), kind)
        x = Fraction(pre) + Fraction(1, 2)
        assert evaluate(net, [x]) == expected


class TestModes:
    """Results are exact; binary64 is their rounding by round_binary64."""

    def test_exact_and_float_agree_on_dyadic_inputs(self):
        # The rounding is float() of the exact result wherever that is
        # finite, on non-dyadic inputs and on lowered nets as well.
        rng = random.Random(11)
        for _ in range(25):
            net = random_network(rng, rng.randint(1, 3), rng.randint(0, 3), 5)
            lowered, _ = binarize(ternarize(net)[0])
            dyadic = [Fraction(rng.randrange(257), 256) for _ in range(net.input_dim)]
            other = [Fraction(rng.randrange(301), 300) for _ in range(net.input_dim)]
            for n in (net, lowered):
                for x in (dyadic, other):
                    exact = evaluate(n, x)
                    assert type(exact) is Fraction
                    assert round_binary64(exact) == float(exact)

    def test_float_mode_follows_half_open_threshold(self):
        # x lies just below the threshold 1/3 of the mean d=1 approximator
        # at M=2, so in cell 0, whose readout is 0; it rounds after that.
        bundle = build_approximator(builtin_target("mean", 1), Fraction(1, 2), M_override=2)
        net = bundle.network
        x = [Fraction(1, 3) - Fraction(1, 10**30)]
        _, out = forward_trace(net, x)
        assert out == 0 and evaluate(net, x) == 0 and evaluate_implicit(bundle, x) == 0
        assert round_binary64(out) == 0.0 and type(round_binary64(out)) is float

    def test_float_mode_coerces_inputs_as_exact_mode(self, example_net):
        assert evaluate(example_net, ["1/3"]) == evaluate(example_net, [Fraction(1, 3)])
        for bad in ("abc", float("nan")):
            with pytest.raises(ParseError):
                evaluate(example_net, [bad])
            with pytest.raises(ParseError):
                forward_trace(example_net, [bad])

    def test_float_mode_overflow_rounds_to_infinity(self):
        double = relu_net(1, [[0, 2]], [[1]])
        assert evaluate(double, [1e308]) == 2 * Fraction(1e308)
        assert round_binary64(evaluate(double, [1e308])) == math.inf
        trace, out = forward_trace(double, [1e308])
        assert ([tuple(map(round_binary64, t)) for t in trace], round_binary64(out)) == \
            ([(math.inf,)], math.inf)
        assert round_binary64(evaluate(double, [10**400])) == math.inf
        assert round_binary64(evaluate(relu_net(1, [[0, -2]]), [1e308])) == -math.inf
        # relu(2x) - 2 relu(x) is 0 although relu(2x) is beyond binary64
        cancel = relu_net(1, [[0, 2], [0, 1]], [[1, -2]])
        assert round_binary64(evaluate(cancel, [1e308])) == 0.0

    def test_multi_unit_output_is_a_tuple(self):
        net = relu_net(1, [[0, 1], [1, 0]], [[1, 0], [0, 1], [1, 1]])
        assert evaluate(net, ["1/3"]) == (Fraction(1, 3), 1, Fraction(4, 3))
        assert type(evaluate(net, ["1/3"])) is tuple
        assert forward_trace(net, ["1/3"]) == ([(Fraction(1, 3), 1)], evaluate(net, ["1/3"]))


class TestValidate:
    def test_ternary_membership_passes(self):
        net = relu_net(1, [[0, "1/2"], ["-1/2", 0]], [["1/2", "-1/2"]])
        assert validate(net, WeightSet.TERNARY_HALF).passed

    def test_offending_entry_reported(self):
        net = relu_net(1, [[0, "1/2"], [2, 0]], [["1/2", "-1/2"]])
        report = validate(net, WeightSet.TERNARY_HALF)
        assert not report.passed
        matrix, row, col, value = report.offender
        assert (matrix, row, col, value) == (0, 1, 0, "2")

    def test_binary_quarter_alphabet(self):
        net = relu_net(2, [["1/4", "-1/4", "1/4"]], [["-1/4"]])
        assert validate(net, WeightSet.BINARY_QUARTER).passed
        assert not validate(net, WeightSet.TERNARY_HALF).passed

    def test_unrestricted_always_passes(self, example_net):
        assert validate(example_net, WeightSet.UNRESTRICTED).passed

    def test_output_scale_is_exempt(self):
        net = relu_net(1, [[0, "1/2"]], scale="1/16")
        assert validate(net, WeightSet.TERNARY_HALF).passed

    def test_offender_too_long_to_print_named_by_bit_length(self):
        net = relu_net(1, [[0, "1/2"], [Fraction(-1, 10**5000), 0]])
        report = validate(net, WeightSet.TERNARY_HALF)
        assert report.offender == (0, 1, 0, "-1/<16610-bit integer>")


class TestSparsity:
    def test_worked_example_has_five_nonzeros(self, example_net):
        report = sparsity(example_net)
        assert report.total_nonzero == 5
        assert report.per_matrix == (3, 2)

    def test_all_zero_matrix(self):
        net = relu_net(1, [[0, 0]])
        assert sparsity(net).total_nonzero == 0


class TestSerialization:
    def test_round_trip_is_field_identical(self, example_net):
        again = deserialize(serialize(example_net))
        assert again == example_net

    def test_serialize_is_deterministic(self, example_net):
        data = serialize(example_net)
        assert data == serialize(deserialize(data))
        assert data.endswith(b"\n")

    def test_entries_load_in_lowest_terms(self):
        payload = {
            "format_version": 1,
            "input_dim": 1,
            "activation": "relu",
            "output_scale": "1",
            "matrices": [{"rows": 1, "cols": 2, "entries": ["2/4", "-1/4"]}],
        }
        net = network_from_dict(payload)
        assert net.matrices[0].entries == (Fraction(1, 2), Fraction(-1, 4))

    def test_file_round_trip(self, tmp_path, example_net):
        path = tmp_path / "net.json"
        save_network(example_net, path)
        assert load_network(path) == example_net

    @pytest.mark.parametrize("net", [
        relu_net(1, [[10**5000, 1]]),
        relu_net(1, [[0, 1]], scale=Fraction(1, 10**5000)),
    ], ids=["entry", "output_scale"])
    def test_value_too_long_to_print_refused_before_writing(self, tmp_path, net):
        path = tmp_path / "net.json"
        with pytest.raises(DomainError, match="<16610-bit integer> has too many digits"):
            serialize(net)
        with pytest.raises(DomainError, match="<16610-bit integer> has too many digits"):
            save_network(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("mutate, exc", [
        (lambda p: p.pop("format_version"), ParseError),
        (lambda p: p.update(format_version=99), ParseError),
        (lambda p: p.update(activation="sigmoid"), ParseError),
        (lambda p: p["matrices"][0]["entries"].__setitem__(0, "x/y"), ParseError),
        (lambda p: p["matrices"][0]["entries"].append("0"), DimensionError),
        (lambda p: p["matrices"][0].update(cols=3), DimensionError),
        (lambda p: p.update(activation="relu_half"), ParseError),
    ])
    def test_malformed_payloads_rejected(self, example_net, mutate, exc):
        payload = json.loads(serialize(example_net))
        mutate(payload)
        with pytest.raises(exc):
            network_from_dict(payload)

    def test_bad_json_names_location(self):
        with pytest.raises(ParseError) as err:
            deserialize(b"{not json")
        assert "line 1" in str(err.value)

    def test_entry_error_names_path(self, example_net):
        payload = json.loads(serialize(example_net))
        payload["matrices"][1]["entries"][0] = "oops"
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert "$.matrices[1].entries[0]" in str(err.value)

    def test_entry_exponent_is_bounded(self, example_net):
        payload = json.loads(serialize(example_net))
        payload["matrices"][0]["entries"][1] = "1e5000"
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert err.value.location == "$.matrices[0].entries[1]"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_networks_round_trip(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(1, 3), rng.randint(0, 3), 4)
        assert deserialize(serialize(net)) == net


def row_payload(*entries):
    """A one-matrix relu network file whose single row holds ``entries``."""
    return {
        "format_version": 1,
        "input_dim": len(entries) - 1,
        "activation": "relu",
        "matrices": [{"rows": 1, "cols": len(entries), "entries": list(entries)}],
    }


def reference_serialize(net):
    """The file format as the stdlib's indenting encoder writes it."""
    payload = {
        "format_version": 1,
        "input_dim": net.input_dim,
        "activation": net.activation.value,
        "output_scale": format_rational(net.output_scale),
        "matrices": [
            {"rows": m.rows, "cols": m.cols,
             "entries": [format_rational(e) for e in m.entries]}
            for m in net.matrices
        ],
    }
    return (json.dumps(payload, indent=1) + "\n").encode("utf-8")


def reference_plan(net):
    """(scale, rows, gather) of every layer, computed entry by entry. The
    distinct rows come in the plan's order: the rows of each part (columns
    1 onward), parts in order of first appearance."""
    plan, merged = [], None
    for m in net.matrices:
        scale = math.lcm(*(e.denominator for e in m.entries))
        index, first = {}, []
        for r in range(m.rows):
            row = [e.numerator * (scale // e.denominator) for e in m.row(r)]
            if merged is not None:
                summed = [0] * (max(merged) + 1)
                for j, w in zip(merged, row):
                    summed[j] += w
                row = summed
            first.append(index.setdefault(tuple(row), len(index)))
        by_part = {}
        for row in index:
            by_part.setdefault(row[1:], []).append(row)
        order = [row for rows in by_part.values() for row in rows]
        position = {row: p for p, row in enumerate(order)}
        distinct = list(index)
        gather = tuple(position[distinct[i]] for i in first)
        plan.append((scale, tuple(order), None if gather == tuple(range(m.rows)) else gather))
        merged = plan[-1][2]
    return plan


@pytest.fixture(scope="module")
def approximator_net():
    """The materialized root d=2 eps=1/7 approximator (M=49, 2,500 cells):
    250,297 entries, 2,600 distinct strings."""
    return build_approximator(builtin_target("root", 2), Fraction(1, 7)).network


class TestMemoizedParsing:
    """Each distinct entry string of a file is parsed once, and every
    entry keeps its own checks and error location."""

    def test_bad_entry_among_repeats_reports_its_index(self):
        payload = row_payload(*["1/2"] * 5, "x/y", *["1/2"] * 3)
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert err.value.location == "$.matrices[0].entries[5]"

    def test_repeated_bad_string_reports_first_index(self):
        payload = row_payload("1/2", "x/y", "1/2", "x/y")
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert err.value.location == "$.matrices[0].entries[1]"

    @pytest.mark.parametrize("entries, index", [
        (["1/2", "b/c", "1/3", "a/c", "b/c"], 1),
        (["1", "a/b", "1", "1/0"], 1),
        (["1", "1/0", "1", "a/b"], 1),
    ])
    def test_lowest_bad_index_is_reported(self, entries, index):
        with pytest.raises(ParseError) as err:
            network_from_dict(row_payload(*entries))
        assert err.value.location == f"$.matrices[0].entries[{index}]"

    def test_bad_string_after_an_earlier_matrix_reports_its_index(self):
        payload = row_payload("1/2", "1/3")
        payload["matrices"].append({"rows": 1, "cols": 3, "entries": ["1/3", "q", "q"]})
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert err.value.location == "$.matrices[1].entries[1]"

    @pytest.mark.parametrize("flag, equal", [(True, 1), (False, 0)])
    def test_bool_refused_after_equal_int_and_string(self, flag, equal):
        payload = row_payload(equal, str(equal), flag)
        with pytest.raises(ParseError) as err:
            network_from_dict(payload)
        assert err.value.location == "$.matrices[0].entries[2]"

    def test_whitespace_variants_parse_alike(self):
        net = network_from_dict(row_payload(" 1/2", "1/2", "1/2 "))
        assert net.matrices[0].entries == (Fraction(1, 2),) * 3

    def test_corpus_and_approximator_round_trip(self, approximator_net):
        # Each net also serializes byte for byte as the indenting encoder
        # writes it, and plans as the per-entry reference does: the corpus
        # with its ternary and binary forms (and unit forms of the first
        # 20), every built-in target at d=1 and d=2, root at d=3, mean with
        # M=1 at d=1..3, the approximator, and a net with a negative output
        # scale and a 10^30 numerator. The approximators' plans are seeded
        # from their grids.
        nets = []
        for i in range(CORPUS_SIZE):
            net = _make_source(i)
            assert deserialize(serialize(net)) == net, i
            tern, binr, _, _ = _lowered(i, net)
            nets += [net, tern, binr]
            if i < 20:
                nets += [to_unit_weights(tern), to_unit_weights(binr)]
        for d in (1, 2):
            for name in ("const", "mean", "maxcoord", "root"):
                target = builtin_target(name, d)
                nets.append(build_approximator(target, Fraction(1, 4), M_override=4).network)
        nets.append(build_approximator(builtin_target("root", 3), Fraction(1, 2)).network)
        for d in (1, 2, 3):
            nets.append(build_approximator(builtin_target("mean", d), Fraction(1, 2),
                                           M_override=1).network)
        nets.append(relu_net(1, [[Fraction(10**30, 7), "-1/2"], [0, 1]], [[1, 10**30]],
                             scale=Fraction(-3, 5)))
        assert deserialize(serialize(approximator_net)) == approximator_net
        nets.append(approximator_net)
        for k, net in enumerate(nets):
            assert serialize(net) == reference_serialize(net), k
            expanded = [(layer.scale, expanded_rows(layer), layer.gather) for layer in net._plan]
            assert expanded == reference_plan(net), k

    def test_each_distinct_string_is_parsed_once(self, monkeypatch, approximator_net):
        data = serialize(approximator_net)
        entries = [e for m in json.loads(data)["matrices"] for e in m["entries"]]
        assert (len(entries), len(set(entries))) == (250_297, 2_600)
        calls = []
        real = qlower.network.as_rational

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(qlower.network, "as_rational", counting)
        assert deserialize(data) == approximator_net
        # one call per distinct entry string, and two for output_scale: one
        # as it is read, one as Network coerces it
        assert len(calls) == len(set(entries)) + 2


# Bytes that json.loads or str.decode cannot take: not UTF-8, nested past
# the recursion limit, and an integer past int(str)'s digit limit.
MALFORMED_FILES = {
    "not_utf8": b"\xff\xfe{}",
    "nested": b"[" * 200_000,
    "long_int": b'{"format_version": 1, "input_dim": ' + b"9" * 5000 + b"}",
}


class TestMalformedBytes:
    @pytest.mark.parametrize("data", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
    def test_raises_parse_error(self, data):
        with pytest.raises(ParseError):
            deserialize(data)

    def test_bad_utf8_names_its_byte(self):
        with pytest.raises(ParseError) as err:
            deserialize(b'{"input_dim": 1, \xc3(}')
        assert err.value.location == "byte 17"

    @pytest.mark.parametrize("data, location", [
        (b'{"input_dim": 1, \xc3(}', "byte 17"),
        (b'{"input_dim": 1,\n "x": }', "line 2 col 7"),
        *((data, None) for data in MALFORMED_FILES.values()),
    ])
    def test_load_network_reports_as_deserialize(self, tmp_path, data, location):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ParseError) as want:
            deserialize(data)
        with pytest.raises(ParseError) as got:
            load_network(path)
        assert (str(got.value), got.value.location) == (str(want.value), want.value.location)
        assert location is None or got.value.location == location

    def test_file_text_is_dropped_before_the_payload_is_read(
            self, tmp_path, monkeypatch, example_net):
        # The file's bytes and its decoded text are each as large as the
        # file; the payload's reader runs with neither alive in any frame.
        # Python 3.10 keeps a call's arguments on the caller's stack, out
        # of f_locals, so the test tracks the objects' deaths instead.
        path = tmp_path / "net.json"
        save_network(example_net, path)
        dead = set()

        class Text(str):
            def __del__(self):
                dead.add("text")

        class Data(bytes):
            def decode(self, *args):
                return Text(bytes.decode(self, *args))

            def __del__(self):
                dead.add("bytes")

        class File:
            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self):
                return Data(self.fh.read())

        real, seen = qlower.network.network_from_dict, []

        def spy(payload):
            seen.append((set(dead), set(sys._getframe(1).f_locals)))
            return real(payload)

        monkeypatch.setattr(qlower.network, "open", File, raising=False)
        monkeypatch.setattr(qlower.network, "network_from_dict", spy)
        assert load_network(path) == example_net
        assert seen[0][0] == {"bytes", "text"}
        assert deserialize(Data(path.read_bytes())) == example_net
        assert seen[1][1] == {"payload"}  # deserialize drops its argument


class TestDistinctObjectWork:
    """The plan and the writer work once per distinct entry object."""

    def test_equal_entries_share_one_plan_int(self, approximator_net):
        net = Network(2, approximator_net.matrices, approximator_net.activation)
        for mat_, layer in zip(net.matrices, net._plan):
            objects = len({id(e) for e in mat_.entries})
            ints = {id(v) for row in expanded_rows(layer) for v in row}
            assert len(ints) <= objects

    def test_writer_formats_each_object_once(self, monkeypatch, approximator_net):
        calls = []
        real = qlower.network.format_rational

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(qlower.network, "format_rational", counting)
        data = serialize(approximator_net)
        objects = {id(e) for m in approximator_net.matrices for e in m.entries}
        assert len(calls) <= len(objects) + 1  # and one for output_scale
        assert len(calls) < 6_000
        assert data == reference_serialize(approximator_net)

    def test_plan_reads_each_object_once(self, monkeypatch, approximator_net):
        received = []
        real = qlower.network.lcm_denominators

        def recording(values):
            values = list(values)
            received.append(len(values))
            return real(values)

        monkeypatch.setattr(qlower.network, "lcm_denominators", recording)
        net = Network(2, approximator_net.matrices, approximator_net.activation)
        net._plan
        assert received == [len({id(e) for e in m.entries}) for m in net.matrices]
        assert sum(received) < 6_000


# Values an entry can take: the alphabets' members and two that are in none.
ENTRY_VALUES = tuple(sorted({v for ws in WeightSet if ws.members() for v in ws.members()}
                            | {Fraction(1, 3), Fraction(-3)}))
SHARED = {v: Fraction(v) for v in ENTRY_VALUES}


@st.composite
def shared_entry_nets(draw):
    """Nets whose entries come from one alphabet, with a few values planted
    at random positions, each entry either a shared object or its own
    equal copy."""
    alphabet = sorted(draw(st.sampled_from([ws for ws in WeightSet if ws.members()])).members())
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    widths[0] = max(widths[0], 2)
    matrices = []
    for cols, rows in zip(widths, widths[1:]):
        values = draw(st.lists(st.sampled_from(alphabet), min_size=rows * cols,
                               max_size=rows * cols))
        for k in draw(st.lists(st.integers(0, rows * cols - 1), max_size=2)):
            values[k] = draw(st.sampled_from(ENTRY_VALUES))
        shared = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        entries = tuple(SHARED[v] if s else Fraction(v) for v, s in zip(values, shared))
        matrices.append(WeightMatrix(rows, cols, entries))
    return Network(widths[0] - 1, tuple(matrices), ActivationKind.RELU)


@st.composite
def repeated_row_nets(draw):
    """Nets whose rows often repeat the row before them: as the same
    objects, as equal copies, or as the same objects but for one entry,
    an equal copy or another value."""
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    widths[0] = max(widths[0], 2)
    values = st.sampled_from(ENTRY_VALUES)
    matrices = []
    for cols, rows in zip(widths, widths[1:]):
        out = [tuple(SHARED[v] for v in draw(st.lists(values, min_size=cols, max_size=cols)))]
        for _ in range(rows - 1):
            how = draw(st.sampled_from(["new", "same", "copy", "one"]))
            row = list(out[-1])
            if how == "new":
                row = [SHARED[draw(values)] for _ in range(cols)]
            elif how == "copy":
                row = [Fraction(e) for e in row]
            elif how == "one":
                row[draw(st.integers(0, cols - 1))] = Fraction(draw(values))
            out.append(tuple(row))
        matrices.append(WeightMatrix(rows, cols, sum(out, ())))
    return Network(widths[0] - 1, tuple(matrices), ActivationKind.RELU)


class TestRepeatedRows:
    """A row whose entries are the previous row's objects reuses its key;
    a row equal to it by value but not by identity is keyed as before."""

    @settings(max_examples=80, deadline=None)
    @given(repeated_row_nets())
    def test_plans_as_the_reference(self, net):
        expanded = [(layer.scale, expanded_rows(layer), layer.gather) for layer in net._plan]
        assert expanded == reference_plan(net)

    def test_equal_copies_still_merge(self):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        shared = (half, -half, quarter)
        rows = [shared, shared, tuple(map(Fraction, shared)), (half, -half, Fraction(1, 4)),
                (half, -half, -quarter), (half, -half, -quarter)]
        net = Network(2, (WeightMatrix(6, 3, sum(rows, ())),), ActivationKind.RELU)
        assert net._plan[0].gather == (0, 0, 0, 0, 1, 1)
        assert [(net._plan[0].scale, expanded_rows(net._plan[0]), net._plan[0].gather)] \
            == reference_plan(net)

    @pytest.fixture
    def counted_eq(self, monkeypatch):
        calls = []
        real = Fraction.__eq__

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(Fraction, "__eq__", counting)
        return calls

    def test_lowered_net_plans_without_fraction_eq(self, counted_eq):
        source = random_network(random.Random(21), 3, 3, 8)
        binr, _ = binarize(ternarize(source)[0])
        nets = [Network(3, n.matrices, n.activation) for n in (source, ternarize(source)[0], binr)]
        counted_eq.clear()
        for net in nets:
            net._plan
        assert counted_eq == []

    def test_parsed_approximator_plans_without_fraction_eq(self, counted_eq, approximator_net):
        parsed = deserialize(serialize(approximator_net))
        counted_eq.clear()
        parsed._plan
        assert counted_eq == []


class TestCachedObjects:
    """A matrix finds its distinct entry objects once; a pickle drops them."""

    def test_pickled_matrices_work_as_the_originals(self):
        source = random_network(random.Random(8), 2, 3, 6)
        net, _ = binarize(ternarize(source)[0])
        net = Network(2, net.matrices[:-1] + (net.matrices[-1].scaled_by(3),), net.activation)
        reports = [validate(net, ws) for ws in WeightSet]
        data, plan = serialize(net), net._plan
        assert all("_objects" in vars(m) for m in net.matrices)
        copies = pickle.loads(pickle.dumps(net.matrices))
        assert copies == net.matrices
        assert not any("_objects" in vars(m) for m in copies)
        rebuilt = Network(2, copies, net.activation)
        assert [validate(rebuilt, ws) for ws in WeightSet] == reports
        assert serialize(rebuilt) == data
        assert rebuilt._plan == plan
        for m in copies:
            assert list(m._objects) == list(dict.fromkeys(map(id, m.entries)))

    def test_each_matrix_walks_its_entries_once(self, monkeypatch):
        source = random_network(random.Random(9), 2, 2, 6)
        calls = []
        real = qlower.network.by_id

        def counting(values):
            calls.append(len(values))
            return real(values)

        monkeypatch.setattr(qlower.network, "by_id", counting)
        qlower.ternary_prefix.cache_clear()
        qlower.binary_prefix.cache_clear()
        tern, _ = ternarize(source)
        binr, _ = binarize(tern)
        evaluate(binr, [Fraction(1, 3), Fraction(1, 5)])
        serialize(binr)
        matrices = {id(m): m for n in (source, tern, binr) for m in n.matrices}
        assert sorted(calls) == sorted(len(m.entries) for m in matrices.values())


def plain_offender(net, weight_set):
    """validate's offender, from a per-entry loop in row-major order."""
    members = weight_set.members()
    for i, m in enumerate(net.matrices):
        for k, e in enumerate(m.entries):
            if members is not None and e not in members:
                return (i, *divmod(k, m.cols), describe_number(e))
    return None


class TestDistinctObjectChecks:
    """validate, the nonzero count and scaling work once per distinct entry
    object, and agree with per-entry loops."""

    @settings(max_examples=60, deadline=None)
    @given(shared_entry_nets(), st.sampled_from(ENTRY_VALUES))
    def test_matches_per_entry_loops(self, net, factor):
        for weight_set in WeightSet:
            offender = plain_offender(net, weight_set)
            report = validate(net, weight_set)
            assert (report.passed, report.offender) == (offender is None, offender)
        per = tuple(sum(1 for e in m.entries if e) for m in net.matrices)
        assert sparsity(net) == SparsityReport(sum(per), per)
        for m in net.matrices:
            assert m.scaled_by(factor).entries == tuple(e * factor for e in m.entries)

    def test_scaling_multiplies_each_object_once(self):
        half, zero = Fraction(1, 2), Fraction(0)
        m = WeightMatrix(2, 3, (half, zero, half, half, zero, Fraction(1, 2)))
        products = []

        class Factor(Fraction):
            def __rmul__(self, other):
                products.append(other)
                return Fraction.__rmul__(self, other)

        scaled = m.scaled_by(Factor(2))
        assert scaled.entries == (1, 0, 1, 1, 0, 1)
        assert len(products) == 3  # half, zero, and the unshared 1/2


def test_hypothesis_draws_the_same_examples_on_every_run():
    # tests/conftest.py loads a derandomized profile, which a test's own
    # @settings inherit: no run draws examples of its own.
    assert settings.default.derandomize and settings.default.database is None
    assert settings(max_examples=60, deadline=None).derandomize
