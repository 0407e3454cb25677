import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import qlower.approx
import qlower.harness
import qlower.rationals
from qlower import (
    ActivationKind,
    ApproximatorBundle,
    CapacityError,
    DimensionError,
    DomainError,
    EquivalenceReport,
    ErrorReport,
    HolderFunctionSpec,
    Network,
    ParseError,
    QlowerError,
    WeightMatrix,
    WeightSet,
    build_approximator,
    build_readout,
    build_selector_matrix,
    binary_prefix,
    builtin_target,
    builtin_targets,
    cell_index,
    check_holder,
    equivalence_check,
    evaluate,
    evaluate_implicit,
    random_network,
    report_rows,
    round_binary64,
    sparsity,
    sup_error,
    ternarize,
    ternary_prefix,
    to_unit_weights,
    binarize,
    validate,
    write_report_csv,
)
from qlower.approx import GridSpec, bundle_stats
from qlower.lowering import TheoremBoundParams, theorem_bounds
from qlower.rationals import format_rational
from qlower.harness import CSV_COLUMNS, _dyadic_indices

from conftest import forbid_selector_builds

F = Fraction


def asymmetric(x):
    """(x_1 + 2 x_2 + 3 x_3)^2 on the first len(x) axes: swapping axes changes it."""
    return sum((i + 1) * F(v) for i, v in enumerate(x)) ** 2


def sqrt_of_max(x):
    """sqrt(max x) in binary64: float values."""
    return math.sqrt(max(float(v) for v in x))


def int_valued(x):
    """floor(7 (x_1 + ... + x_d)): int values."""
    return math.floor(7 * sum(x))


def mixed(x):
    """``asymmetric`` rounded to a float on the lower half of the last axis."""
    v = asymmetric(x)
    return float(v) if x[-1] < F(1, 2) else v


SCAN_TARGETS = [asymmetric, sqrt_of_max, int_valued, mixed]
SCAN_TARGET_IDS = ["fraction", "float", "int", "mixed"]


def line(bias, slope):
    """x -> bias + slope * x, as one affine matrix."""
    return Network(1, (WeightMatrix.from_rows([[bias, slope]]),), ActivationKind.RELU)


def plain_scan(bundle, f, n_per_axis):
    """sup_error's (sup, argmax), one evaluate_implicit per scanned point."""
    grid = bundle.grid
    axis = [F(i, n_per_axis - 1) for i in range(n_per_axis)]
    points = itertools.chain(
        itertools.product(axis, repeat=grid.d),
        (grid.representative(k) for k in range(grid.cell_count)))
    worst, argmax = F(-1), ()
    for x in points:
        diff = abs(F(f(x)) - evaluate_implicit(bundle, x))
        if diff > worst:
            worst, argmax = diff, x
    return float(worst), argmax


def brute_force_report(bundle, f, n_per_axis, bound, representatives):
    """sup_error's whole report, from one ``cell_index`` per scanned point."""
    grid = bundle.grid
    evaluator = f.evaluator if isinstance(f, HolderFunctionSpec) else f
    axis = [F(i, n_per_axis - 1) for i in range(n_per_axis)]
    points = list(itertools.product(axis, repeat=grid.d))
    if representatives:
        points += [grid.representative(k) for k in range(grid.cell_count)]
    worst, argmax = F(-1), ()
    for x in points:
        diff = abs(F(evaluator(x)) - bundle.readout[cell_index(x, grid)])
        if diff > worst:
            worst, argmax = diff, x
    return ErrorReport(float(worst), argmax,
                       None if bound is None else float(worst) <= float(bound))


class TestBuiltinTargets:
    def test_registry_contents(self):
        targets = builtin_targets(2)
        assert set(targets) == {"const", "mean", "maxcoord", "root"}
        assert targets["root"].beta == 0.5
        assert targets["const"].F == 0.5
        assert all(spec.d == 2 for spec in targets.values())

    def test_known_values(self):
        targets = builtin_targets(2)
        x = (F(1, 2), F(1, 4))
        assert targets["const"].evaluator(x) == F(1, 2)
        assert targets["mean"].evaluator(x) == F(3, 8)
        assert targets["maxcoord"].evaluator(x) == F(1, 2)
        assert targets["root"].evaluator(x) == math.sqrt(0.5)

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            builtin_targets(0)

    def test_registry_matches_builtin_target(self):
        assert builtin_target("mean", 1) == builtin_targets(1)["mean"]

    def test_unknown_name_lists_available(self):
        with pytest.raises(DomainError, match="available: const, maxcoord, mean, root"):
            builtin_target("nope", 1)

    @pytest.mark.parametrize("name, shown", [([1], "[1]"), ({}, "{}"), (None, "None"),
                                             (10**5000, "<16610-bit integer>")],
                             ids=["list", "dict", "None", "huge"])
    def test_name_that_is_not_a_string_refused(self, name, shown):
        message = f"target name must be a string, got {re.escape(shown)}$"
        with pytest.raises(DomainError, match=message):
            builtin_target(name, 1)
        with pytest.raises(DomainError, match=message):
            report_rows([1], [F(1, 2)], target_names=[name])


class TestBuiltinClaims:
    """The built-in targets' claimed (beta, K) are program constants, so
    they are decided here, once, and not at run time."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ["const", "mean", "maxcoord"])
    def test_exact_targets_pass_the_seeded_check(self, name, d):
        """const, mean and maxcoord return exact values and are
        1-Lipschitz in the sup norm for every d: const is constant,
        |mean x - mean y| <= mean |x_i - y_i| <= max |x_i - y_i|, and
        |max x - max y| <= max |x_i - y_i|. So each seeded pair is decided
        in integers, and none can fail."""
        spec = builtin_target(name, d)
        assert (spec.beta, spec.K) == (1, 1)
        check_holder(spec, name=name)

    def test_root_is_refused_exactly_over_every_pair(self, monkeypatch):
        """Decided exactly, root's claim fails on the dyadic pairs
        (a/256, b/256) at d=1: fed all 257^2 of them in order, check_holder
        stops at the first violating one, (0, 1/128), whose binary64 square
        root rounds up. The d=1 pairs cover every d: root reads only the
        largest coordinate, and |max x - max y| <= max |x_i - y_i|."""
        drawn = iter(itertools.product(range(257), repeat=2))
        monkeypatch.setattr(qlower.harness, "_dyadic_indices", lambda rng, n: list(next(drawn)))
        with pytest.raises(DomainError) as err:
            check_holder(builtin_target("root", 1), pairs=257**2, name="root")
        assert str(err.value).endswith("at x=['0'], y=['1/128']")
        assert next(drawn) == (0, 3)  # refused at the third pair, (0, 2)

    @pytest.mark.parametrize("d, refused", [(1, "x=['207/256'], y=['0']"), (2, None), (3, None)])
    def test_root_seeded_check_is_exact(self, d, refused):
        """The default seeded draw meets one of root's exact violations at
        d=1 (35 of its 10,000 pairs violate), none at d = 2 and 3."""
        if refused is None:
            check_holder(builtin_target("root", d), name="root")
        else:
            with pytest.raises(DomainError, match=re.escape(refused)):
                check_holder(builtin_target("root", d), name="root")

    def test_root_exact_violations_are_pinned(self):
        """Decided exactly, |f(x) - f(y)|^2 * 256 <= gap fails on 122 of
        the 257*256/2 unordered pairs at d=1; root's binary64 square root
        is not exactly (1/2, 1)-Hoelder. (1/128, 0) comes first: there
        sqrt(2)/16 rounds up."""
        root = builtin_target("root", 1).evaluator
        values = [F(root([F(i, 256)])) for i in range(257)]
        violating = [(a, b) for a in range(257) for b in range(a)
                     if (values[a] - values[b]) ** 2 * 256 > a - b]
        assert len(violating) == 122
        assert violating[0] == (2, 0)


class TestCheckHolder:
    def test_correct_claim_passes(self):
        check_holder(HolderFunctionSpec(lambda x: x[0], 1, 1.0, 1.0, 1.0),
                     pairs=500, name="identity")

    def test_understated_constant_caught(self):
        doubled = HolderFunctionSpec(lambda x: 2 * x[0], 1, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            check_holder(doubled, pairs=500, name="doubled")

    def test_overstated_exponent_caught(self):
        sqrt_spec = HolderFunctionSpec(lambda x: math.sqrt(float(x[0])),
                                       1, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            check_holder(sqrt_spec, pairs=500, name="sqrt-as-lipschitz")

    @staticmethod
    def drawn_points(name, d, seed, pairs):
        """The points of the seeded pairs, drawn as Fraction(randrange(257), 256)."""
        rng = random.Random(f"holder:{name}:{d}:{seed}:{pairs}")
        points = []
        for _ in range(pairs):
            points.append([Fraction(rng.randrange(257), 256) for _ in range(d)])
            points.append([Fraction(rng.randrange(257), 256) for _ in range(d)])
        return points

    @pytest.mark.parametrize("beta", [1, Fraction(1, 2)])
    def test_evaluator_sees_the_seeded_dyadic_points(self, beta):
        seen = []
        spec = HolderFunctionSpec(lambda x: seen.append(list(x)) or 0, 3, beta, 1, 1)
        check_holder(spec, pairs=400, seed=9, name="probe")
        assert seen == self.drawn_points("probe", 3, 9, 400)

    def test_violation_names_the_first_violating_pair(self):
        doubled = HolderFunctionSpec(lambda x: 2 * x[0] - x[1], 2, 1, 1, 2)
        points = self.drawn_points("doubled", 2, 0, 500)
        x, y = next(
            (x, y) for x, y in zip(points[::2], points[1::2])
            if abs(2 * (x[0] - y[0]) - (x[1] - y[1])) > max(abs(x[0] - y[0]), abs(x[1] - y[1])))
        with pytest.raises(DomainError) as err:
            check_holder(doubled, pairs=500, name="doubled")
        assert str(err.value).endswith(
            f"x={[format_rational(v) for v in x]}, y={[format_rational(v) for v in y]}")

    @classmethod
    def reference_violation(cls, spec, pairs, name):
        """check_holder's message for seed 0 from a plain-Fraction loop, or None."""
        points = cls.drawn_points(name, spec.d, 0, pairs)
        for x, y in zip(points[::2], points[1::2]):
            gap = max(abs(a - b) for a, b in zip(x, y))
            if abs(F(spec.evaluator(x)) - F(spec.evaluator(y))) > spec.K * gap:
                return (f"target {name!r} violates its claimed constants at "
                        f"x={[format_rational(v) for v in x]}, "
                        f"y={[format_rational(v) for v in y]}")
        return None

    # (target, d, K, passes): equality on every pair, a non-dyadic K, int
    # values, and targets mutated past their constant
    @pytest.mark.parametrize("f, d, K, passes", [
        (lambda x: F(3, 2) * x[0], 1, F(3, 2), True),
        (lambda x: 2 * x[0], 1, F(7, 4), False),
        (lambda x: F(7, 3) * max(x), 2, F(7, 3), True),
        (lambda x: F(12, 5) * max(x), 2, F(7, 3), False),
        (lambda x: F(7, 3) * x[0] + (F(1, 100) if x[1] > F(1, 2) else 0), 2, F(7, 3), False),
        (lambda x: (x[0] + x[1]) / 2 + (F(1, 100) if x[0] > F(1, 2) else 0), 2, 1, False),
        (lambda x: int(x[0] >= F(1, 2)), 1, 256, True),
        (lambda x: int(x[0] >= F(1, 2)), 1, 2, False),
    ])
    def test_verdict_and_message_match_a_plain_fraction_loop(self, f, d, K, passes):
        spec = HolderFunctionSpec(f, d, 1, K, 1)
        want = self.reference_violation(spec, 2000, "probe")
        assert (want is None) == passes
        if passes:
            check_holder(spec, pairs=2000, name="probe")
        else:
            with pytest.raises(DomainError) as err:
                check_holder(spec, pairs=2000, name="probe")
            assert str(err.value) == want

    def test_unit_beta_decided_exactly_not_with_the_float_slack(self):
        # 10^-15 * gap/256 over the claim: far inside any binary64 slack
        spec = HolderFunctionSpec(lambda x: x[0] * F(10**15 + 1, 10**15), 1, 1, 1, 1)
        with pytest.raises(DomainError, match="violates"):
            check_holder(spec, pairs=500, name="probe")

    # One pair (i/256, 0) per step of holder_sign that decides a pair near
    # the bound: the largest binary64 f(i/256) <= K*(i/256)^beta passes, the
    # next binary64 up is refused. Where (i/256)^beta is rational, that
    # largest value is the bound itself, a tie.
    @pytest.mark.parametrize("beta, K, i, at, logs", [
        pytest.param(1, 1, 77, 77 / 256, False, id="tie-unit-beta"),
        pytest.param(F(1, 2), 1, 64, 0.5, False, id="tie-square"),
        pytest.param(F(1, 3), 3, 256, 3.0, False, id="tie-at-one"),
        pytest.param(F(1, 2), F(7, 3), 77, None, False, id="integer-powers"),
        pytest.param(F(0.7071067811865476), 1, 128, None, True, id="logarithms"),
        pytest.param(F("0.7071067811865476"), F(5, 3), 33, None, True,
                     id="logarithms-decimal-beta"),
    ])
    def test_pairs_at_the_bound_on_each_step(self, monkeypatch, beta, K, i, at, logs):
        if at is None:
            with localcontext() as ctx:
                ctx.prec = 80  # K*(i/256)^beta to 80 digits, far from any binary64
                bound = F(Decimal(K.numerator) / K.denominator * (Decimal(i) / 256) ** (
                    Decimal(beta.numerator) / beta.denominator))
            at = math.nextafter(float(bound), 0)
            while F(math.nextafter(at, math.inf)) < bound:
                at = math.nextafter(at, math.inf)
            assert F(at) < bound < F(math.nextafter(at, math.inf))
        real, contexts = qlower.approx.localcontext, []
        monkeypatch.setattr(qlower.approx, "localcontext",
                            lambda: contexts.append(1) or real())
        monkeypatch.setattr(qlower.harness, "_dyadic_indices", lambda rng, n: [i, 0])
        for value, passes in ((at, True), (math.nextafter(at, math.inf), False)):
            spec = HolderFunctionSpec(lambda x: value if x[0] else 0.0, 1, beta, K, 1)
            if passes:
                check_holder(spec, pairs=1, name="probe")
            else:
                with pytest.raises(DomainError, match=f"x=\\['{i // math.gcd(i, 256)}"):
                    check_holder(spec, pairs=1, name="probe")
        assert bool(contexts) == logs

    # Messages the randrange(257) sampler gave: the shared draw names the
    # same first violating pair of the built-in targets with K too small.
    @pytest.mark.parametrize("name, d, K, message", [
        ("mean", 2, F(1, 2), "x=['141/256', '195/256'], y=['17/32', '59/256']"),
        ("maxcoord", 3, F(1, 10),
         "x=['33/64', '55/128', '165/256'], y=['43/64', '231/256', '121/128']"),
        ("root", 1, F(1, 2), "x=['15/128'], y=['3/4']"),
        ("root", 2, F(9, 10), "x=['1/128', '1/128'], y=['203/256', '147/256']"),
    ])
    def test_wrong_constants_name_the_pinned_pair(self, name, d, K, message):
        spec = dataclasses.replace(builtin_target(name, d), K=K)
        with pytest.raises(DomainError) as err:
            check_holder(spec, name=name)
        assert str(err.value) == f"target {name!r} violates its claimed constants at {message}"

    def test_one_pair_is_accepted(self):
        check_holder(builtin_target("mean", 2), pairs=1)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_fewer_than_one_pair_refused(self, pairs):
        # 10x violates K = 1 on almost every pair, yet no pairs would find none
        spec = HolderFunctionSpec(lambda x: 10 * x[0], 1, 1, 1, 1)
        with pytest.raises(DomainError, match=f"^pairs must be an integer >= 1, got {pairs}$"):
            check_holder(spec, pairs=pairs)


class TestDyadicDraws:
    """check_holder and equivalence_check draw the numerators of i/256
    through one helper, which gives randrange(257)'s stream."""

    def test_helper_draws_as_randrange(self):
        for seed in [*range(500), *(f"holder:seed:{i}" for i in range(500))]:
            want, got = random.Random(seed), random.Random(seed)
            assert _dyadic_indices(got, 30) == [want.randrange(257) for _ in range(30)], seed
            assert got.getstate() == want.getstate(), seed


class TestIntegerScanWork:
    """The scan and the built-in ``mean`` compare and add in integers."""

    @pytest.mark.parametrize("n", [11, 201])
    def test_float_scan_coerces_only_the_sup_and_the_bound(self, monkeypatch, n):
        spec = builtin_target("root", 2)
        bundle = build_approximator(spec, F(1, 5))
        calls = []
        real = qlower.rationals.as_rational

        def counting(value):
            calls.append(value)
            return real(value)

        for module in (qlower.harness, qlower.rationals):
            monkeypatch.setattr(module, "as_rational", counting)
        report = sup_error(bundle, spec, n_per_axis=n, bound=F(1, 5))
        assert len(calls) == 2 and float(calls[0]) == report.sup_error and calls[1] == F(1, 5)

    @pytest.mark.parametrize("x", [
        (1,), (0, 1, 1), (0.5, 0.1), ("1/3", "0.3", "2"),
        (F(1, 3), F(2, 7)), (F(1, 3), 0.25, "5/6", 1, F(-2, 9)),
    ])
    def test_mean_matches_fraction_sum(self, x):
        got = qlower.harness._mean(x)
        assert type(got) is Fraction
        assert got == sum(map(Fraction, x)) / len(x)


class TestSupError:
    def test_constant_approximator_is_exact(self):
        spec = builtin_targets(1)["const"]
        bundle = build_approximator(spec, F(1, 10))
        report = sup_error(bundle, spec, n_per_axis=51, bound=bundle.error_bound)
        assert report.sup_error == 0.0 and report.passed

    def test_linear_frozen_maximum(self):
        spec = builtin_targets(1)["mean"]
        bundle = build_approximator(spec, F(1, 5))
        report = sup_error(bundle, spec, n_per_axis=1001, bound=bundle.error_bound)
        # worst scanned point is x = 1: cell 5, representative 5/6
        assert report.sup_error == pytest.approx(1 / 6)
        assert report.argmax_point == (F(1),)
        assert report.passed

    def test_maxcoord_two_dimensional(self):
        spec = builtin_targets(2)["maxcoord"]
        bundle = build_approximator(spec, F(1, 4))
        report = sup_error(bundle, spec, n_per_axis=51, bound=bundle.error_bound)
        assert report.passed

    def test_without_bound_pass_is_undetermined(self):
        spec = builtin_targets(1)["mean"]
        bundle = build_approximator(spec, F(1, 5))
        report = sup_error(bundle, spec.evaluator, n_per_axis=11)
        assert report.passed is None

    def test_values_beyond_binary64_report_infinity(self):
        spec = builtin_targets(1)["mean"]
        bundle = build_approximator(spec, F(1, 2))
        report = sup_error(bundle, spec, n_per_axis=11, bound=10**400)
        assert report.passed
        report = sup_error(bundle, lambda x: 10**400, n_per_axis=11)
        assert report.sup_error == math.inf and report.argmax_point == (F(0),)

    def test_needs_two_points_per_axis(self):
        spec = builtin_targets(1)["mean"]
        bundle = build_approximator(spec, F(1, 2))
        with pytest.raises(DomainError):
            sup_error(bundle, spec, n_per_axis=1)

    def test_tampered_network_rejected(self, tampered_net):
        spec = builtin_targets(1)["mean"]
        with pytest.raises(DomainError):
            sup_error(tampered_net, spec, bound=F(1, 4))

    # n = 2; n - 1 a multiple of M + 1 (points exactly on thresholds); n unrelated to M
    @pytest.mark.parametrize("d, M, n", [
        (1, 4, 2), (1, 4, 11), (1, 4, 8),
        (2, 3, 2), (2, 3, 9), (2, 3, 6),
        (3, 2, 2), (3, 2, 7), (3, 2, 5),
    ])
    @pytest.mark.parametrize("f", [asymmetric, lambda x: F(1, 2)], ids=["asymmetric", "ties"])
    def test_matches_plain_per_point_scan(self, d, M, n, f):
        bundle = build_approximator(HolderFunctionSpec(f, d, 1, 36, 36), 1, M_override=M)
        report = sup_error(bundle, f, n_per_axis=n)
        assert (report.sup_error, report.argmax_point) == plain_scan(bundle, f, n)

    def test_changed_readout_entry_reported_at_its_representative(self):
        grid = GridSpec(2, 3)
        readout = [F(asymmetric(grid.representative(k))) for k in range(grid.cell_count)]
        k = cell_index((F(2, 4), F(1, 4)), grid)
        readout[k] += 100
        bundle = ApproximatorBundle(grid, None, tuple(readout), None, "hand-built")
        # no scanned point of 4 per axis is a corner of cell (2, 1), so only
        # the representative itself is off by exactly 100
        report = sup_error(bundle, asymmetric, n_per_axis=4)
        assert report.sup_error == 100.0
        assert report.argmax_point == (F(1, 2), F(1, 4))

    def test_scan_finds_cells_without_lookups(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point cell lookup")

        spec = builtin_targets(2)["mean"]
        bundle = build_approximator(spec, F(1, 4))
        for module in (qlower.approx, qlower.harness):
            monkeypatch.setattr(module, "cell_index", refuse, raising=False)
            monkeypatch.setattr(module, "evaluate_implicit", refuse, raising=False)
        sup_error(bundle, spec, n_per_axis=21)

    # (d, M, n): n - 1 a multiple of M + 1, M + 1 a multiple of n - 1,
    # coprime, and more points than cells or fewer
    @pytest.mark.parametrize("d, M, n", [
        (1, 5, 13), (1, 11, 4), (1, 6, 10), (1, 2, 2), (1, 30, 7),
        (2, 3, 9), (2, 7, 5), (2, 4, 8), (3, 2, 4), (3, 1, 6),
    ])
    @pytest.mark.parametrize("representatives", [True, False])
    def test_report_matches_brute_force_scan(self, d, M, n, representatives):
        bound = F(1, 3)
        for f in SCAN_TARGETS:  # Fraction, float, int and mixed values
            spec = HolderFunctionSpec(f, d, 1, 36, 36)
            bundle = build_approximator(spec, 1, M_override=M)
            report = sup_error(bundle, spec, n_per_axis=n, bound=bound,
                               include_representatives=representatives)
            assert report == brute_force_report(bundle, spec, n, bound, representatives)

    @pytest.mark.parametrize("d, eps, n", [
        (1, F(1, 5), 1001), (1, F(1, 20), 37), (2, F(1, 5), 201), (2, F(1, 10), 31),
    ])
    def test_builtin_root_matches_brute_force_scan(self, d, eps, n):
        spec = builtin_target("root", d)
        bundle = build_approximator(spec, eps)
        report = sup_error(bundle, spec, n_per_axis=n, bound=bundle.error_bound)
        assert report == brute_force_report(bundle, spec, n, bundle.error_bound, True)

    # readouts that are not dyadic, with numerators up to 10^30
    @pytest.mark.parametrize("readout", [
        [F(k % 4, 3) for k in range(16)],
        [F(10**30 + k, 3 * 10**30 + 1) for k in range(16)],
        [F(1, 3)] * 5 + [F(10**30, 7)] + [F(-1, 3)] * 10,
    ], ids=["thirds", "wide", "huge"])
    @pytest.mark.parametrize("f", SCAN_TARGETS, ids=SCAN_TARGET_IDS)
    @pytest.mark.parametrize("n", [4, 9])
    def test_hand_built_readout_matches_brute_force_scan(self, readout, f, n):
        bundle = ApproximatorBundle(GridSpec(2, 3), None, tuple(readout), None, "hand-built")
        report = sup_error(bundle, f, n_per_axis=n, bound=F(1, 3))
        assert report == brute_force_report(bundle, f, n, F(1, 3), True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, None])
    def test_non_rational_target_value_names_the_point(self, value):
        bundle = build_approximator(builtin_targets(1)["mean"], F(1, 5))
        with pytest.raises(QlowerError) as err:
            sup_error(bundle, lambda x: value if x[0] > F(1, 2) else 0.0, n_per_axis=11)
        assert type(err.value) is DomainError
        assert str(err.value) == "target evaluator failed at point ['3/5']"
        assert isinstance(err.value.__cause__, ParseError)

    def test_one_axis_scan_holds_no_per_point_list(self):
        bundle = build_approximator(builtin_targets(1)["mean"], F(1, 5))
        bundle.readout  # built before tracing
        tracemalloc.start()
        try:
            report = sup_error(bundle, lambda x: x[0], n_per_axis=200_001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.argmax_point == (F(1),)
        # lists of the 200,001 points would take about 30 MB
        assert peak < 1_000_000

    def test_scan_over_cap_fails_before_scanning(self, monkeypatch):
        spec = builtin_targets(2)["mean"]
        bundle = build_approximator(spec, F(1, 4))  # M = 4, 25 cells

        def refuse(x):
            raise AssertionError("scan started")

        monkeypatch.setenv("QLOWER_CAP", "145")
        with pytest.raises(CapacityError) as err:
            sup_error(bundle, refuse, n_per_axis=11)
        assert (err.value.required, err.value.cap) == (11**2 + 25, 145)
        assert str(err.value).startswith("scan needs 146 points")
        # without the representatives the same scan fits
        monkeypatch.undo()
        monkeypatch.setenv("QLOWER_CAP", "121")
        sup_error(bundle, spec, n_per_axis=11, include_representatives=False)

    def test_target_on_another_dimension_refused(self):
        bundle = build_approximator(builtin_targets(2)["mean"], F(1, 5))
        with pytest.raises(DimensionError, match=r"target is on \[0,1\]\^1"):
            sup_error(bundle, builtin_target("mean", 1), bound=F(1, 5))


def raising(x):
    raise ValueError("boom")


# name -> (evaluator, whether its values are accepted)
HOSTILE = {
    "raises": (raising, False),
    "nan": (lambda x: math.nan, False),
    "inf": (lambda x: math.inf, False),
    "None": (lambda x: None, False),
    "True": (lambda x: True, False),
    "string": (lambda x: "1/2", True),
    "overflow": (lambda x: 10**400 * x[0], True),
}

# every function that reads a target
READERS = {
    "build_readout": lambda f: build_readout(f, GridSpec(1, 3)),
    "sup_error": lambda f: sup_error(
        ApproximatorBundle(GridSpec(1, 3), None, (F(0),) * 4, None, "zeros"), f, n_per_axis=5),
    "check_holder-beta-1": lambda f: check_holder(HolderFunctionSpec(f, 1, 1, 1, 1), pairs=200),
    "check_holder-beta-1/2": lambda f: check_holder(
        HolderFunctionSpec(f, 1, F(1, 2), 1, 1), pairs=200),
}


class TestHostileEvaluators:
    """build_readout, sup_error and check_holder read a target one way."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("value", HOSTILE)
    def test_readers_accept_and_refuse_alike(self, reader, value):
        f, accepted = HOSTILE[value]
        try:
            READERS[reader](f)
        except DomainError as exc:
            # an accepted value can only be refuted as a Hoelder claim
            failed = str(exc).startswith("target evaluator failed at ")
            assert failed != accepted
            assert (exc.__cause__ is not None) == failed
        else:
            assert accepted

    @pytest.mark.parametrize("beta", [1, F(1, 2)], ids=["1", "1/2"])
    def test_values_beyond_binary64_decided_exactly(self, beta):
        check_holder(HolderFunctionSpec(lambda x: 10**400 + x[0], 1, beta, 1, 1), pairs=500)
        for f in (lambda x: 10**400 + 2 * x[0],
                  lambda x: 0.5 if x[0] < F(1, 2) else F(10**400)):  # float against Fraction
            with pytest.raises(DomainError, match="violates"):
                check_holder(HolderFunctionSpec(f, 1, beta, 1, 1), pairs=500)

    def test_rational_strings_checked_exactly(self):
        check_holder(HolderFunctionSpec(lambda x: format_rational(x[0] / 3), 1, 1, F(1, 3), 1))
        with pytest.raises(DomainError, match="violates"):
            check_holder(HolderFunctionSpec(lambda x: format_rational(x[0]), 1, 1, F(1, 3), 1))

    def test_message_prints_the_point(self):
        spec = HolderFunctionSpec(lambda x: None if x[0] == F(1, 2) else x[0], 1, 1, 1, 1)
        with pytest.raises(DomainError) as err:
            check_holder(spec, name="probe")
        assert str(err.value) == "target evaluator failed at point ['1/2']"
        assert isinstance(err.value.__cause__, ParseError)


HUGE = 10**5000  # more digits than str() prints by default
IDENTITY = Network(1, (WeightMatrix(1, 2, (F(0), F(1))),), ActivationKind.RELU)
HUGE_ARGUMENTS = {
    "equivalence_check-tolerance": lambda: equivalence_check(IDENTITY, IDENTITY, tolerance=-HUGE),
    "equivalence_check-n_samples": lambda: equivalence_check(IDENTITY, IDENTITY, n_samples=-HUGE),
    "check_holder-pairs": lambda: check_holder(builtin_target("mean", 1), pairs=-HUGE),
    "check_holder-seed": lambda: check_holder(builtin_target("mean", 1), pairs=1, seed=HUGE),
    "build_approximator-epsilon": lambda: build_approximator(builtin_target("mean", 1), -HUGE),
    "GridSpec-M": lambda: GridSpec(1, -HUGE),
    "HolderFunctionSpec-d": lambda: HolderFunctionSpec(lambda x: 0, -HUGE, 1, 1, 1),
    "sup_error-n_per_axis": lambda: sup_error(
        build_approximator(builtin_target("mean", 1), F(1, 2)), builtin_target("mean", 1),
        n_per_axis=-HUGE),
    "cell_index-coordinate": lambda: cell_index([F(HUGE, 3)], GridSpec(1, 2)),
    "Network-input_dim": lambda: Network(-HUGE, (WeightMatrix(1, 2, (F(0), F(1))),),
                                         ActivationKind.RELU),
    "theorem_bounds-m": lambda: theorem_bounds(TheoremBoundParams(-HUGE, 20, 1.0, 1, 1.0)),
    "theorem_bounds-d": lambda: theorem_bounds(TheoremBoundParams(1, 20, 1.0, -HUGE, 1.0)),
    "theorem_bounds-N": lambda: theorem_bounds(TheoremBoundParams(1, -HUGE, 1.0, 1, 1.0)),
    # sizes that pass the count rule and reach the check they break
    "report_rows-dims": lambda: report_rows([HUGE], ["1/2"], ["mean"]),
    "build_approximator-d": lambda: build_approximator(builtin_target("mean", HUGE), F(1, 2)),
    "WeightMatrix-rows": lambda: WeightMatrix(HUGE, 1, (F(0),)),
    "Network-columns": lambda: Network(HUGE, (WeightMatrix(1, 2, (F(0), F(1))),),
                                       ActivationKind.RELU),
}


class TestHostileNumbers:
    """A number too long for str() is refused with a QlowerError whose
    message shows it by its bit length, not with the ValueError that
    printing it in full would raise."""

    @pytest.mark.parametrize("call", HUGE_ARGUMENTS.values(), ids=HUGE_ARGUMENTS.keys())
    def test_refused_with_its_bit_length(self, call):
        with pytest.raises(QlowerError, match="<16610-bit integer>"):
            call()

    @pytest.mark.parametrize("name, error", [
        ("report_rows-dims", CapacityError),
        ("build_approximator-d", CapacityError),
        ("WeightMatrix-rows", DimensionError),
        ("Network-columns", DimensionError),
    ])
    def test_huge_sizes_reach_their_check(self, name, error):
        with pytest.raises(error):
            HUGE_ARGUMENTS[name]()

    def test_nan_beta_refused_by_theorem_bounds(self):
        with pytest.raises(DomainError, match="beta must be positive, got nan"):
            theorem_bounds(TheoremBoundParams(1, 20, math.nan, 1, 1.0))

    @pytest.mark.parametrize("value", [None, "junk", [1]], ids=["None", "junk", "list"])
    @pytest.mark.parametrize("call", [
        lambda v: equivalence_check(IDENTITY, IDENTITY, tolerance=v),
        lambda v: theorem_bounds(TheoremBoundParams(1, 20, v, 1, 1.0)),
        lambda v: theorem_bounds(TheoremBoundParams(1, 20, 1.0, 1, v)),
    ], ids=["equivalence_check-tolerance", "theorem_bounds-beta", "theorem_bounds-K"])
    def test_non_numbers_refused(self, call, value):
        with pytest.raises(DomainError, match=f"must be (finite and non-negative|positive), "
                                              f"got {re.escape(str(value))}$"):
            call(value)


def never_called(x):
    raise AssertionError("a pair was drawn")


class _NeverDrawn:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


never_drawn = _NeverDrawn()


COUNTED_CALLS = {
    "check_holder": lambda n: check_holder(HolderFunctionSpec(never_called, 1, 1, 1, 1), pairs=n),
    "equivalence_check": lambda n: equivalence_check(IDENTITY, IDENTITY, n_samples=n),
}


class TestHostileCounts:
    """More pairs or samples than QLOWER_CAP are refused before any is
    drawn, at once, however many are asked for."""

    @pytest.mark.parametrize("name", COUNTED_CALLS)
    @pytest.mark.parametrize("count, required", [(10**12, 10**12), (HUGE, "at least 2^16609")],
                             ids=["1e12", "1e5000"])
    def test_refused_at_once(self, name, count, required):
        start = time.process_time()
        with pytest.raises(CapacityError) as err:
            COUNTED_CALLS[name](count)
        assert time.process_time() - start < 1.0
        assert err.value.required == required

    @pytest.mark.parametrize("name", COUNTED_CALLS)
    def test_count_at_the_cap_runs(self, name, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "40")
        with pytest.raises(CapacityError, match="needs 41 "):
            COUNTED_CALLS[name](41)
        if name == "equivalence_check":
            assert equivalence_check(IDENTITY, IDENTITY, n_samples=40).equivalent
        else:
            check_holder(builtin_target("mean", 1), pairs=40)


# Each count, size or dimension, given a value that is not an int.
NON_INT_COUNT_CALLS = {
    "GridSpec-d": lambda n: GridSpec(n, 3),
    "GridSpec-M": lambda n: GridSpec(1, n),
    "GridSpec.cell_coords-k": lambda n: GridSpec(1, 2).cell_coords(n),
    "HolderFunctionSpec-d": lambda n: HolderFunctionSpec(never_called, n, 1, 1, 1),
    "builtin_target-d": lambda n: builtin_target("mean", n),
    "sup_error-n_per_axis": lambda n: sup_error(
        build_approximator(builtin_target("mean", 1), F(1, 2)), builtin_target("mean", 1),
        n_per_axis=n),
    "equivalence_check-n_samples": lambda n: equivalence_check(IDENTITY, IDENTITY, n_samples=n),
    "check_holder-pairs": COUNTED_CALLS["check_holder"],
    "build_approximator-M_override": lambda n: build_approximator(
        HolderFunctionSpec(never_called, 1, 1, 1, 1), F(1, 2), M_override=n),
    "report_rows-dims": lambda n: report_rows([n], ["1/2"], ["mean"]),
    "report_rows-n_per_axis": lambda n: report_rows([1], ["1/2"], ["mean"], n_per_axis=n),
    "random_network-input_dim": lambda n: random_network(never_drawn, n, 1, 1),
    "random_network-depth": lambda n: random_network(never_drawn, 1, n, 1),
    "random_network-max_width": lambda n: random_network(never_drawn, 1, 1, n),
    "theorem_bounds-m": lambda n: theorem_bounds(TheoremBoundParams(n, 20, 1.0, 1, 1.0)),
    "theorem_bounds-N": lambda n: theorem_bounds(TheoremBoundParams(1, n, 1.0, 1, 1.0)),
    "theorem_bounds-d": lambda n: theorem_bounds(TheoremBoundParams(1, 20, 1.0, n, 1.0)),
    "WeightMatrix-rows": lambda n: WeightMatrix(n, 1, (F(0),)),
    "WeightMatrix-cols": lambda n: WeightMatrix(1, n, (F(0),)),
    "Network-input_dim": lambda n: Network(n, (WeightMatrix(1, 2, (F(0), F(1))),),
                                           ActivationKind.RELU),
    "ternary_prefix-d": ternary_prefix,
    "binary_prefix-d": binary_prefix,
}

NON_INTS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "huge-fraction": F(HUGE + 1, 3),
            "None": None, "junk": "junk", "True": True, "1.5": 1.5}


class TestNonIntCounts:
    """A count that is not an int, a bool included, is refused at once by
    the one count rule, with a DomainError that prints it: never accepted,
    and never a raw TypeError or AttributeError."""

    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=f"{name}-{key}")
        for name in NON_INT_COUNT_CALLS for key, value in NON_INTS.items()
        if not (name == "build_approximator-M_override" and value is None)  # its default
    ])
    def test_refused_as_a_domain_error(self, name, value):
        start = time.process_time()
        with pytest.raises(DomainError) as err:
            NON_INT_COUNT_CALLS[name](value)
        assert time.process_time() - start < 1.0
        assert " must be an integer >= " in str(err.value)
        if isinstance(value, Fraction):
            assert "-bit integer>" in str(err.value)  # printed by its bit length
        else:
            assert str(err.value).endswith(f", got {value}")


SEEDED_CALLS = {
    "equivalence_check": lambda seed: equivalence_check(IDENTITY, IDENTITY, n_samples=1, seed=seed),
    "check_holder": lambda seed: check_holder(builtin_target("mean", 1), pairs=1, seed=seed),
}

# Prints what both seeded checks report for the seed in argv[1].
SEEDED_REPORTS = """
import dataclasses, random, sys
from fractions import Fraction
from qlower import DomainError, builtin_target, check_holder, equivalence_check, random_network
seed = int(sys.argv[1]) if sys.argv[1].isdigit() else sys.argv[1]
a, b = (random_network(random.Random(s), 2, 2, 4) for s in (1, 2))
print(equivalence_check(a, b, n_samples=256, seed=seed))
try:
    check_holder(dataclasses.replace(builtin_target("mean", 2), K=Fraction(1, 2)), seed=seed)
except DomainError as exc:
    print(exc)
"""


class TestSeeds:
    """Every seed is an int or a str, so a seeded check reports the same
    in every process; any other seed is refused."""

    @pytest.mark.parametrize("seed", [0, "run-7"])
    def test_same_report_in_two_processes(self, seed):
        src = str(Path(qlower.harness.__file__).resolve().parents[1])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", SEEDED_REPORTS, str(seed)], check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(outputs) == 1
        report, violation = outputs.pop().splitlines()
        assert "equivalent=False" in report and "violates" in violation

    @pytest.mark.parametrize("seed", [None, 1.5, True, F(1, 2)], ids=["None", "1.5", "True", "1/2"])
    @pytest.mark.parametrize("name", SEEDED_CALLS)
    def test_other_seeds_refused(self, name, seed):
        with pytest.raises(DomainError, match=f"^seed must be an int or a str, got {seed}$"):
            SEEDED_CALLS[name](seed)


class TestReportFields:
    """A report holds what its check found, not the inputs it was given."""

    def test_error_report_fields(self):
        assert [f.name for f in dataclasses.fields(ErrorReport)] == [
            "sup_error", "argmax_point", "passed"]

    def test_equivalence_report_fields(self):
        assert [f.name for f in dataclasses.fields(EquivalenceReport)] == [
            "equivalent", "max_abs_diff", "first_divergence"]


class TestEquivalenceCheck:
    def test_network_equals_itself(self):
        net = random_network(random.Random(1), 2, 2, 4)
        report = equivalence_check(net, net)
        assert report.equivalent and report.max_abs_diff == 0.0
        assert report.first_divergence is None

    def test_lowering_outputs_equivalent(self):
        rng = random.Random(2)
        net = random_network(rng, 2, 2, 4)
        tern, _ = ternarize(net)
        binr, _ = binarize(tern)
        assert equivalence_check(net, tern, n_samples=50).equivalent
        assert equivalence_check(tern, binr, n_samples=50).equivalent

    def test_divergence_reported_and_symmetric(self):
        rng = random.Random(3)
        a = random_network(rng, 1, 1, 3)
        while True:
            b = random_network(rng, 1, 1, 3)
            if equivalence_check(a, b, n_samples=20).equivalent is False:
                break
        fwd = equivalence_check(a, b, n_samples=100, seed=9)
        rev = equivalence_check(b, a, n_samples=100, seed=9)
        assert fwd.max_abs_diff == rev.max_abs_diff
        assert fwd.first_divergence is not None
        assert fwd.first_divergence["point"] == rev.first_divergence["point"]

    def test_divergence_too_long_to_print_is_reported(self):
        # 7,200 matrices of 1/4 against their copy with output scale 2: the
        # outputs' denominators have more digits than str() prints, and the
        # report holds them exactly.
        net = Network(1, (WeightMatrix.from_rows([["1/4", "1/4"]]),)
                      + (WeightMatrix.from_rows([["1/4"]]),) * 7199, ActivationKind.RELU)
        report = equivalence_check(net, Network(1, net.matrices, net.activation, F(2)),
                                   n_samples=3)
        assert not report.equivalent and report.max_abs_diff == 0.0
        first = report.first_divergence
        (a,), (b,) = first["a"], first["b"]
        assert a == evaluate(net, first["point"]) > 0 and b == 2 * a
        with pytest.raises(DomainError, match="too many digits to print"):
            format_rational(a)

    def test_one_sample_is_accepted(self):
        net = random_network(random.Random(6), 2, 2, 4)
        assert equivalence_check(net, net, n_samples=1) == EquivalenceReport(True, 0.0, None)

    def test_determinism(self):
        rng = random.Random(4)
        a = random_network(rng, 2, 1, 3)
        b = random_network(rng, 2, 1, 3)
        assert equivalence_check(a, b, seed=7) == equivalence_check(a, b, seed=7)

    def test_dimension_mismatch_rejected(self):
        a = random_network(random.Random(5), 1, 1, 3)
        b = random_network(random.Random(5), 2, 1, 3)
        with pytest.raises(DimensionError):
            equivalence_check(a, b)

    def test_float_mode_with_tolerance(self):
        net = random_network(random.Random(6), 2, 2, 4)
        assert equivalence_check(net, net, tolerance=1e-9).equivalent
        # a difference of at most 10^-30 is within a tolerance of 10^-9
        third, near = line(0, F(1, 3)), line(0, F(1, 3) + F(1, 10**30))
        assert equivalence_check(third, near, tolerance=1e-9).equivalent

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9], ids=["exact", "float"])
    def test_difference_beyond_binary64_is_infinite(self, tolerance):
        # x -> 10^400 x against x -> 0: the exact difference has no binary64
        # value, and rounds to inf; no finite tolerance covers it.
        report = equivalence_check(line(0, 10**400), line(0, 0), n_samples=3,
                                   tolerance=tolerance)
        assert not report.equivalent and report.max_abs_diff == math.inf

    def test_outputs_beyond_binary64_still_differ(self):
        # Both outputs round to inf, and inf - inf is nan, which no
        # tolerance comparison catches; the exact difference is x.
        report = equivalence_check(line(10**400, 1), line(10**400, 2), n_samples=20)
        assert not report.equivalent and 0 < report.max_abs_diff <= 1
        first = report.first_divergence
        x = F(first["point"][0])
        assert F(first["b"][0]) - F(first["a"][0]) == x > 0
        assert round_binary64(F(first["a"][0])) == math.inf

    def test_difference_below_an_ulp_is_found(self):
        # (1/3 + 10^-30) x and x/3 round to the same binary64 at every
        # sample, but differ exactly wherever x > 0.
        third, near = line(0, F(1, 3)), line(0, F(1, 3) + F(1, 10**30))
        report = equivalence_check(third, near, n_samples=20)
        assert not report.equivalent and 0 < report.max_abs_diff <= 1e-30
        x = F(report.first_divergence["point"][0])
        assert round_binary64(evaluate(third, [x])) == round_binary64(evaluate(near, [x]))

    @pytest.mark.parametrize("tolerance", [F(10**400), 10**400], ids=["fraction", "int"])
    def test_tolerance_beyond_binary64_is_finite(self, tolerance):
        # Neither has a binary64 value, but both are finite: every
        # difference of these nets is within them, and none of 10^401 x.
        report = equivalence_check(line(0, 10**300), line(0, 0), n_samples=20,
                                   tolerance=tolerance)
        assert report.equivalent and 0 < report.max_abs_diff <= 1e300
        report = equivalence_check(line(0, 10**401), line(0, 0), n_samples=20,
                                   tolerance=tolerance)
        assert not report.equivalent and report.max_abs_diff == math.inf

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1, -1e-300])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        # nan would certify any pair (no diff is > nan), and a negative
        # tolerance would make a net differ from itself.
        a = random_network(random.Random(1), 2, 2, 4)
        b = random_network(random.Random(2), 2, 2, 4)
        for other in (a, b):
            with pytest.raises(DomainError, match="tolerance"):
                equivalence_check(a, other, tolerance=tolerance)


def plain_equivalence(a, b, n_samples, seed, tolerance):
    """equivalence_check's report from a plain Fraction loop over evaluate,
    and the exact largest difference."""
    rng = random.Random(seed)
    worst, first = F(0), None
    for _ in range(n_samples):
        x = tuple(F(rng.randrange(257), 256) for _ in range(a.input_dim))
        va, vb = (v if isinstance(v, tuple) else (v,) for v in (evaluate(a, x), evaluate(b, x)))
        diff = max(abs(p - q) for p, q in zip(va, vb))
        worst = max(worst, diff)
        if first is None and diff > tolerance:
            first = {"point": list(x), "a": list(va), "b": list(vb)}
    return EquivalenceReport(first is None, round_binary64(worst), first), worst


def with_entry(net, i, k, value):
    """net with entry k of matrix i replaced by value."""
    m = net.matrices[i]
    entries = m.entries[:k] + (F(value),) + m.entries[k + 1:]
    mats = net.matrices[:i] + (WeightMatrix(m.rows, m.cols, entries),) + net.matrices[i + 1:]
    return Network(net.input_dim, mats, net.activation, net.output_scale)


def with_outputs(net, rng, outputs):
    """net with its output matrix replaced by ``outputs`` random base-alphabet rows."""
    last = net.matrices[-1]
    rows = [[rng.choice(sorted(WeightSet.BASE_A.members())) for _ in range(last.cols)]
            for _ in range(outputs)]
    return Network(net.input_dim, net.matrices[:-1] + (WeightMatrix.from_rows(rows),),
                   net.activation)


GRID_4 = [F(i, 4) for i in range(5)]


def parity_pairs():
    """(id, a, b, verdict at tolerance 0 or None when not known)."""
    rng = random.Random(41)
    multi = with_outputs(random_network(rng, 2, 2, 4), rng, 3)
    multi_binary = binarize(ternarize(multi)[0])[0]
    # the first of the seeded nets whose output takes more than two values
    source = next(net for net in (random_network(rng, 2, 3, 6) for _ in range(50))
                  if len({evaluate(net, x) for x in itertools.product(GRID_4, repeat=2)}) > 2)
    binary = binarize(ternarize(source)[0])[0]
    unit = to_unit_weights(binary)
    approx = build_approximator(builtin_target("mean", 2), F(1, 4)).network
    readout = len(approx.matrices) - 1
    return [
        ("multi_output_lowered", multi, multi_binary, True),
        # output unit 1 gains 1/2, units 0 and 2 are unchanged
        ("multi_output_changed", multi,
         with_entry(multi, 2, 4, multi.matrices[2].entries[4] + F(1, 2)), False),
        ("unit_weights", source, unit, True),
        ("unit_weights_changed",
         Network(2, source.matrices, ActivationKind.RELU, F(3, 2)), unit, False),
        ("unit_weights_both", to_unit_weights(ternarize(source)[0]), unit, True),
        ("indicator_readout_changed", approx,
         with_entry(approx, readout, 7, approx.matrices[readout].entries[7] + F(1, 3)), False),
        ("line_against_zero", line(0, 1), line(0, 0), False),
    ]


PARITY = parity_pairs()


class TestEquivalenceParity:
    """The integer check reports what a plain Fraction loop over evaluate does."""

    @pytest.mark.parametrize("a, b, verdict", [p[1:] for p in PARITY],
                             ids=[p[0] for p in PARITY])
    @pytest.mark.parametrize("tolerance", [0, 1e-9, F(1, 4)])
    def test_report_matches_a_plain_fraction_loop(self, a, b, verdict, tolerance):
        for seed in (0, 5):
            report = equivalence_check(a, b, n_samples=60, seed=seed, tolerance=tolerance)
            assert report == plain_equivalence(a, b, 60, seed, tolerance)[0]
            if tolerance == 0:
                assert report.equivalent is verdict

    @pytest.mark.parametrize("a, b", [p[1:3] for p in PARITY], ids=[p[0] for p in PARITY])
    @pytest.mark.parametrize("n_samples", [1, 127, 128, 129, 257])
    def test_report_across_chunk_boundaries(self, a, b, n_samples):
        for tolerance in (0, F(1, 4)):
            report = equivalence_check(a, b, n_samples=n_samples, seed=2, tolerance=tolerance)
            assert report == plain_equivalence(a, b, n_samples, 2, tolerance)[0]

    @pytest.mark.parametrize("a, b", [p[1:3] for p in PARITY if not p[3]],
                             ids=[p[0] for p in PARITY if not p[3]])
    def test_tolerance_equal_to_the_largest_difference_is_no_divergence(self, a, b):
        _, worst = plain_equivalence(a, b, 60, 3, 0)
        assert worst > 0
        report = equivalence_check(a, b, n_samples=60, seed=3, tolerance=worst)
        assert report == plain_equivalence(a, b, 60, 3, worst)[0]
        assert report.equivalent and report.max_abs_diff == round_binary64(worst)
        below = equivalence_check(a, b, n_samples=60, seed=3, tolerance=worst * F(999, 1000))
        assert not below.equivalent


class TestIntegerEquivalenceWork:
    """equivalence_check runs both nets through the integer loop only."""

    def test_equivalent_pair_never_calls_evaluate(self, monkeypatch):
        source = random_network(random.Random(43), 2, 2, 5)
        binary = binarize(ternarize(source)[0])[0]
        runs = []
        real = qlower.harness.forward_integers

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate called")

        def counting(net, points, den, trace=None):
            runs.append(net)
            return real(net, points, den, trace)

        monkeypatch.setattr(qlower.network, "evaluate", refuse)
        monkeypatch.setattr(qlower.harness, "forward_integers", counting)
        report = equivalence_check(source, binary, n_samples=30)
        assert report.equivalent and report.max_abs_diff == 0.0
        assert runs == [source, binary]  # one run per net per chunk


class TestRandomNetwork:
    def test_deterministic_given_seed(self):
        assert random_network(random.Random(8), 2, 3, 5) == \
            random_network(random.Random(8), 2, 3, 5)

    def test_respects_alphabet_and_shape(self):
        rng = random.Random(9)
        net = random_network(rng, 3, 2, 6, alphabet=WeightSet.TERNARY_HALF)
        assert validate(net, WeightSet.TERNARY_HALF).passed
        assert net.depth == 2
        assert net.input_dim == 3
        assert net.output_dim == 1
        assert all(1 <= w <= 6 for w in net.width_vector[1:-1])

    def test_density_zero_gives_all_zeros(self):
        net = random_network(random.Random(10), 2, 1, 3, density=0.0)
        assert all(e == 0 for m in net.matrices for e in m.entries)

    def test_unrestricted_alphabet_rejected(self):
        with pytest.raises(DomainError):
            random_network(random.Random(11), 1, 1, 2,
                           alphabet=WeightSet.UNRESTRICTED)

    @pytest.mark.parametrize("value, error", [
        (HUGE, CapacityError), (2.0, DomainError), (F(2), DomainError),
        (True, DomainError), (None, DomainError), ("2", DomainError),
    ], ids=["1e5000", "float", "fraction", "bool", "none", "str"])
    @pytest.mark.parametrize("size", ["input_dim", "depth", "max_width"])
    def test_hostile_size_fails_before_any_draw(self, size, value, error):
        sizes = {"input_dim": 2, "depth": 2, "max_width": 3, size: value}
        start = time.process_time()
        with pytest.raises(error):
            random_network(never_drawn, **sizes)
        assert time.process_time() - start < 1.0

    def test_largest_entry_count_is_capped(self, monkeypatch):
        # (depth+1) * max(input_dim+1, max_width)^2 = 3 * 5^2
        monkeypatch.setenv("QLOWER_CAP", "74")
        with pytest.raises(CapacityError, match="needs 75 entries"):
            random_network(never_drawn, 4, 2, 3)
        monkeypatch.setenv("QLOWER_CAP", "75")
        assert random_network(random.Random(12), 4, 2, 3).depth == 2


class TestBundleStatsAndReport:
    def test_stats_match_materialized_counts(self):
        spec = builtin_targets(2)["mean"]
        bundle = build_approximator(spec, F(1, 3))
        stats = bundle_stats(bundle)
        d, M = 2, bundle.grid.M
        assert stats["depth"] == 2
        assert stats["widths"] == (d + 1, d * M + 1, (M + 1) ** d, 1)
        assert stats["sparsity"] == sparsity(bundle.network).total_nonzero

    def test_nothing_builds_a_selector(self, monkeypatch):
        forbid_selector_builds(monkeypatch)
        spec = builtin_targets(2)["mean"]
        bundle = build_approximator(spec, F(1, 3))
        assert bundle.certificate_dict()["materialized"] is True
        assert sup_error(bundle, spec, n_per_axis=11, bound=bundle.error_bound).passed
        assert bundle_stats(bundle)["sparsity"] > 0
        assert report_rows([1], ["1/4"], ["mean"], n_per_axis=11)[0]["pass"]

    def test_implicit_selector_count_matches_formula(self):
        grid = GridSpec(2, 3)
        materialized = build_selector_matrix(grid).nonzero_count()
        cells = grid.cell_count
        assert materialized == (cells - 1) + cells * 2 * 3

    def test_rows_and_columns(self):
        rows = report_rows([1], ["1/4", "1/8", "1/16"], ["mean"], n_per_axis=101)
        assert len(rows) == 3
        assert all(tuple(r) == CSV_COLUMNS for r in rows)
        assert [r["M"] for r in rows] == [4, 8, 16]
        assert rows[0]["widths"] == "2x5x5x1"
        assert all(r["pass"] for r in rows)
        sups = [float(r["sup_error"]) for r in rows]
        assert sups == sorted(sups, reverse=True)

    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            report_rows([1], ["1/4"], ["nope"])

    def test_bound_column_is_the_bundle_bound(self):
        bundle = build_approximator(builtin_targets(1)["mean"], F(1, 5))
        row = report_rows([1], ["1/5"], ["mean"], n_per_axis=11)[0]
        assert row["bound"] == repr(bundle.error_bound) == "0.16666666666666666"

    @pytest.mark.parametrize("excess, passes", [(0, True), (F(1, 10**30), False)])
    def test_pass_is_the_exact_error_against_the_exact_bound(self, monkeypatch, excess, passes):
        # mean at eps=1/5 (M=5) errs by exactly K/(M+1) = 1/6 at x=1; 10^-30
        # more is the same in binary64, yet over the bound
        def mean_plus(x):
            return x[0] + (excess if x[0] == 1 else 0)

        monkeypatch.setitem(qlower.harness._BUILTIN, "mean", (mean_plus, 1, 1, 1))
        row = report_rows([1], ["1/5"], ["mean"], n_per_axis=11)[0]
        assert row["sup_error"] == row["bound"] == "0.16666666666666666"
        assert row["pass"] is passes

    def test_over_cap_grid_refused_before_any_target_value(self, monkeypatch):
        # 2^200 cells: refused from the constants, before a readout or
        # Hoelder check reads the target
        def refuse(*args, **kwargs):
            raise AssertionError("target read")

        monkeypatch.setattr(qlower.harness, "check_holder", refuse)
        monkeypatch.setattr(qlower.approx, "read_target", refuse)
        with pytest.raises(CapacityError):
            report_rows([200], ["1/2"], ["mean"])

    def test_csv_layout_and_determinism(self, tmp_path):
        rows = report_rows([1], ["1/4"], ["mean", "maxcoord"], n_per_axis=51)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, rows)
        write_report_csv(p2, report_rows([1], ["1/4"], ["mean", "maxcoord"],
                                         n_per_axis=51))
        data = p1.read_bytes()
        assert data == p2.read_bytes()
        lines = data.decode().splitlines()
        assert lines[0] == "target,d,beta,K,eps,M,depth,widths,sparsity,sup_error,bound,pass"
        assert len(lines) == 3
        assert b"\r" not in data

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report_csv(path, [])
        assert path.read_text() == \
            "target,d,beta,K,eps,M,depth,widths,sparsity,sup_error,bound,pass\n"
