import json
import random
from fractions import Fraction

import pytest

import qlower.approx
import qlower.cli
from qlower import (
    ActivationKind, Network, WeightMatrix, evaluate, load_network, random_network,
    round_binary64, save_network)
from qlower.cli import main

F = Fraction


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses the Infinity and NaN extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def affine_net(weight):
    """x -> relu(weight * x) as a one-layer network."""
    hidden = WeightMatrix.from_rows([[0, weight]])
    return Network(1, (hidden, WeightMatrix.from_rows([[1]])), ActivationKind.RELU)


def line_net(bias, slope):
    """x -> bias + slope * x, as one affine matrix."""
    return Network(1, (WeightMatrix.from_rows([[bias, slope]]),), ActivationKind.RELU)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding src.json and two
    differing one-input nets a.json and b.json."""
    monkeypatch.chdir(tmp_path)
    save_network(random_network(random.Random(31), 2, 2, 4), "src.json")
    rng = random.Random(32)
    save_network(random_network(rng, 1, 1, 3), "a.json")
    save_network(random_network(rng, 1, 1, 3), "b.json")
    return tmp_path


@pytest.fixture
def source_net(tmp_path):
    net = random_network(random.Random(31), 2, 2, 4)
    path = tmp_path / "src.json"
    save_network(net, path)
    return net, path


class TestBounds:
    def test_frozen_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "bounds", "--d", 1, "--beta", 1, "--K", 1, "--N", 6, "--m", 1)
        assert code == 0
        assert payload["L"] == 81
        assert payload["p_inf"] == 144
        assert payload["lowered_binary"]["width"] == 32 * 144

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "--d", 1, "--beta", 1, "--K", 1,
                           "--N", 6, "--m", 1, "--pretty")
        assert code == 0 and '\n "L": 81,\n' in out and json.loads(out)["L"] == 81

    def test_precondition_violation_is_validation_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--d", 1, "--beta", 1, "--K", 1,
                             "--N", 5, "--m", 1)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("d, beta, K", [
        (1000, 1, 1),        # e^d overflows binary64
        (1, "1e400", 1),     # beta beyond binary64
        (1, 1, "1e400"),     # K beyond binary64
    ])
    def test_overflow_is_validation_error(self, capsys, d, beta, K):
        code, out, err = run(capsys, "bounds", "--d", d, "--beta", beta, "--K", K,
                             "--N", 6, "--m", 1)
        assert code == 1 and "Traceback" not in err and err.count("\n") == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("name, beta, K", [("beta", "1e-400", 1), ("K", 1, "1e-400")])
    def test_underflow_is_validation_error(self, capsys, name, beta, K):
        # positive, but 0 in binary64: log2(K) would fail, and beta = 0 pass
        code, out, err = run(capsys, "bounds", "--d", 1, "--beta", beta, "--K", K,
                             "--N", 30, "--m", 1)
        assert code == 1 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "DomainError"
        assert error["message"] == f"{name} = 1/1{'0' * 400} rounds to 0 in binary64"


class TestApprox:
    def test_build_and_implicit_eval(self, capsys, tmp_path):
        out_path = tmp_path / "mean.json"
        code, payload, _ = run_json(
            capsys, "approx", "--target", "mean", "--d", 1, "--eps", "0.25",
            "--out", out_path)
        assert code == 0
        assert payload["M"] == 4 and payload["certified"]
        assert payload["certificate"] == str(tmp_path / "mean.cert.json")

        cert = json.loads((tmp_path / "mean.cert.json").read_text())
        for key in ("d", "M", "beta", "K", "F", "epsilon", "bound", "certified"):
            assert key in cert
        assert cert["certified"] is True

        code, payload, _ = run_json(
            capsys, "eval", "--net", out_path, "--x", "0.3", "--implicit", "--exact")
        assert code == 0 and payload["value"] == "1/5"

    def test_uncertified_override_exits_one(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, err = run(
            capsys, "approx", "--target", "mean", "--d", 1, "--eps", "0.05",
            "--M", 2, "--out", out_path)
        assert code == 1
        assert json.loads(out)["certified"] is False
        assert json.loads(err)["error"] == "DomainError"
        assert json.loads((tmp_path / "m.cert.json").read_text())["certified"] is False

    def test_bound_equal_to_epsilon_is_certified(self, capsys, tmp_path):
        out_path = tmp_path / "root.json"
        code, payload, _ = run_json(
            capsys, "approx", "--target", "root", "--d", 2, "--beta", "1/2",
            "--K", "7/3", "--eps", "1/3", "--M", 48, "--out", out_path)
        assert code == 0 and payload["certified"] is True
        assert json.loads((tmp_path / "root.cert.json").read_text())["certified"] is True

    def test_rational_override_picks_exact_resolution(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "approx", "--target", "root", "--d", 2, "--K", "7/3",
            "--eps", "1/3", "--out", tmp_path / "root.json")
        assert code == 0 and payload["M"] == 49  # (K/eps)^2 = 49

    def test_long_decimal_beta(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys, "approx", "--target", "mean", "--d", 1,
            "--beta", "0.7071067811865476", "--eps", "1/10",
            "--out", tmp_path / "mean.json")
        assert code == 0 and payload["M"] == 26  # 10^(1/beta) = 25.95...

    @pytest.mark.parametrize("override, checked", [((), []), (("--K", "1"), ["root"])],
                             ids=["builtin", "override"])
    def test_checks_only_overridden_constants(self, capsys, tmp_path, monkeypatch,
                                              override, checked):
        seen = []
        original = qlower.cli.check_holder
        monkeypatch.setattr(qlower.cli, "check_holder",
                            lambda spec, name: (seen.append(name), original(spec, name=name)))
        code, _, _ = run(capsys, "approx", "--target", "root", "--d", 2, *override,
                         "--eps", "1/2", "--out", tmp_path / "root.json")
        assert code == 0 and seen == checked

    def test_root_claim_refused_exactly_at_d1(self, capsys, tmp_path):
        # 35 of the 10,000 seeded pairs violate root's claim exactly; the
        # binary64 difference and bound agree on every one of them.
        code, out, err = run(capsys, "approx", "--target", "root", "--d", 1, "--K", "1",
                             "--eps", "1/2", "--out", tmp_path / "root.json")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "DomainError",
            "message": "target 'root' violates its claimed constants at x=['207/256'], y=['0']"}

    def test_uncertified_resolution_far_above_2_to_50(self, capsys, tmp_path):
        # (K/eps)^(1/beta) = 2^(10^9): certified is decided without it.
        out_path = tmp_path / "a.json"
        code, payload, err = run_json(
            capsys, "approx", "--target", "mean", "--d", 1, "--beta", "1e-9",
            "--eps", "1/2", "--M", 5, "--out", out_path)
        assert code == 1 and payload["certified"] is False
        assert json.loads(err)["message"] == "resolution M=5 does not certify eps=0.5"
        assert json.loads((tmp_path / "a.cert.json").read_text())["certified"] is False
        assert out_path.exists()

    def test_over_cap_grid_fails_before_holder_check(self, capsys, tmp_path, monkeypatch):
        checked = []
        monkeypatch.setattr(qlower.cli, "check_holder",
                            lambda spec, name: checked.append(name))
        code, _, err = run(capsys, "approx", "--target", "mean", "--d", 10, "--K", "1",
                           "--eps", "1/100", "--out", tmp_path / "mean.json")
        error = json.loads(err)
        assert code == 1 and error["error"] == "CapacityError"
        assert error["required"] == 101**10 and checked == []

    def test_readout_over_cap_reports_sizes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QLOWER_CAP", "4")
        code, _, err = run(capsys, "approx", "--target", "mean", "--d", 1,
                           "--eps", "1/4", "--out", tmp_path / "mean.json")
        error = json.loads(err)
        assert code == 1 and error["error"] == "CapacityError"
        assert (error["required"], error["cap"]) == (5, 4)

    @pytest.mark.parametrize("argv", [
        ("--d", 1, "--beta", "1/20000", "--K", 3, "--eps", 1),  # 3^20000 + 1 cells
        ("--d", 100000, "--eps", "1/2"),                         # 3^100000 cells
    ])
    def test_unprintable_grid_size_is_capacity_error(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, "approx", "--target", "mean", *argv,
                           "--out", tmp_path / "mean.json")
        assert code == 1 and "Traceback" not in err and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "CapacityError"
        assert error["required"].startswith("at least 2^")

    def test_hostile_dimension_refused_at_once(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(qlower.approx.GridSpec, "cell_count", None)  # never read
        code, _, err = run(capsys, "approx", "--target", "mean", "--d", 10**7,
                           "--eps", "1/2", "--out", tmp_path / "mean.json")
        error = json.loads(err)
        assert code == 1 and error["error"] == "CapacityError"
        assert error["required"] == "at least 2^10000000"

    @pytest.mark.parametrize("argv", [
        ("--K", "1e400", "--M", 1),
        ("--F", "1e400"),
        ("--beta", "1e-400"),
        ("--eps", "1e-400"),
        ("--eps", "1e400"),
    ])
    def test_value_beyond_binary64_refused_before_writing(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, "approx", "--target", "root", "--d", 1,
                             "--eps", "1/2", *argv, "--out", tmp_path / "x.json")
        assert code == 1 and out == ""
        assert "Traceback" not in err and err.count("\n") == 1
        error = strict_json(err)
        assert error["error"] == "DomainError" and "binary64" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_unknown_target_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "approx", "--target", "nope", "--d", 1,
                           "--eps", "0.1", "--out", tmp_path / "x.json")
        assert code == 1 and "available" in json.loads(err)["message"]

    def test_constant_override_checked(self, capsys, tmp_path):
        # mean claimed with K=1/2 is wrong for d=1; the spot check catches it
        code, _, err = run(capsys, "approx", "--target", "mean", "--d", 1,
                           "--K", "1/2", "--eps", "0.1",
                           "--out", tmp_path / "x.json")
        assert code == 1 and "constants" in json.loads(err)["message"]

    def test_artifacts_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "approx", "--target", "root", "--d", 1, "--eps", "0.3",
            "--out", a)
        run(capsys, "approx", "--target", "root", "--d", 1, "--eps", "0.3",
            "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.cert.json").read_bytes() == \
            (tmp_path / "b.cert.json").read_bytes()


class TestLowerRescaleEquiv:
    def test_ternary_then_equiv_exact(self, capsys, source_net, tmp_path):
        _, src = source_net
        out = tmp_path / "tern.json"
        code, payload, _ = run_json(capsys, "lower", "--mode", "ternary",
                                    "--in", src, "--out", out)
        assert code == 0 and payload["pass"]
        assert payload["target"]["weight_set"] == "ternary_half"
        assert (tmp_path / "tern.cert.json").exists()

        code, payload, _ = run_json(capsys, "equiv", "--a", src, "--b", out,
                                    "--exact")
        assert code == 0
        assert payload["equivalent"] and payload["max_abs_diff"] == 0.0

    def test_binary_from_base_goes_via_ternary(self, capsys, source_net, tmp_path):
        _, src = source_net
        out = tmp_path / "bin.json"
        code, payload, _ = run_json(capsys, "lower", "--mode", "binary",
                                    "--in", src, "--out", out)
        assert code == 0 and payload["via_ternary"]
        assert payload["target"]["weight_set"] == "binary_quarter"
        code, payload, _ = run_json(capsys, "equiv", "--a", src, "--b", out)
        assert code == 0 and payload["equivalent"]

    def test_rescale_to_unit(self, capsys, source_net, tmp_path):
        net, src = source_net
        tern = tmp_path / "tern.json"
        unit = tmp_path / "unit.json"
        run(capsys, "lower", "--mode", "ternary", "--in", src, "--out", tern)
        code, payload, _ = run_json(capsys, "rescale", "--to", "unit",
                                    "--in", tern, "--out", unit)
        assert code == 0
        assert payload["weight_set"] == "ternary_unit"
        # depth-2 source: ternary form has 5 matrices, so scale 2^-5
        assert payload["output_scale"] == "1/32"
        code, payload, _ = run_json(capsys, "equiv", "--a", src, "--b", unit)
        assert code == 0 and payload["equivalent"]

    def test_differing_networks_exit_one(self, capsys, tmp_path):
        rng = random.Random(32)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(random_network(rng, 1, 1, 3), a)
        save_network(random_network(rng, 1, 1, 3), b)
        code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--samples", 64)
        payload = json.loads(out)
        if payload["equivalent"]:
            pytest.skip("rng produced equal nets; covered elsewhere")
        assert code == 1
        assert payload["first_divergence"] is not None
        assert json.loads(err)["error"] == "DomainError"

    def test_difference_beyond_binary64_prints_inf(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(affine_net(10**400), a)
        save_network(affine_net(0), b)
        code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--samples", 3)
        assert code == 1 and "Traceback" not in err
        payload = strict_json(out)
        assert not payload["equivalent"] and payload["max_abs_diff"] == "inf"
        assert strict_json(err)["error"] == "DomainError"

    @pytest.mark.parametrize("a_net, b_net", [
        (line_net(10**400, 1), line_net(10**400, 2)),    # both outputs round to inf
        (line_net(0, F(1, 3)), line_net(0, F(1, 3) + F(1, 10**30))),  # below an ulp
    ], ids=["beyond_binary64", "below_an_ulp"])
    def test_float_verdict_is_the_exact_one(self, capsys, tmp_path, a_net, b_net):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(a_net, a)
        save_network(b_net, b)
        for flag in ("--float", "--exact"):
            code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--samples", 20, flag)
            payload = strict_json(out)
            assert code == 1 and not payload["equivalent"], flag
            assert 0 < payload["max_abs_diff"] <= 1
            assert strict_json(err)["error"] == "DomainError"

    @pytest.mark.parametrize("a_net, b_net", [
        (line_net(10**400, 1), line_net(10**400, 2)),    # both outputs round to inf
        (line_net(0, F(1, 3)), line_net(0, F(1, 3) + F(1, 10**30))),  # below an ulp
    ], ids=["beyond_binary64", "below_an_ulp"])
    def test_float_divergence_never_reads_alike(self, capsys, tmp_path, a_net, b_net):
        # Outputs whose binary64 texts agree print their exact texts instead.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(a_net, a)
        save_network(b_net, b)
        texts = {}
        for flag in ("--float", "--exact"):
            code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--samples", 20, flag)
            first = strict_json(out)["first_divergence"]
            texts[flag] = first["a"], first["b"]
        a_text, b_text = texts["--float"]
        assert a_text != b_text and "inf" not in a_text + b_text
        assert texts["--float"] == texts["--exact"]

    def test_tolerance_that_is_negative_or_not_rational_refused(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(random_network(random.Random(1), 2, 2, 4), a)
        save_network(random_network(random.Random(2), 2, 2, 4), b)
        code, out, err = run(capsys, "equiv", "--a", a, "--b", b)
        assert code == 1 and not json.loads(out)["equivalent"]
        code, out, err = run(capsys, "equiv", "--a", a, "--b", b, "--tolerance", "-1")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "DomainError" and "tolerance" in error["message"]
        for tolerance in ("nan", "inf"):  # not rational: a usage error, as for --eps
            code, out, err = run(capsys, "equiv", "--a", a, "--b", b,
                                 "--tolerance", tolerance)
            assert code == 2 and out == ""
            assert f"argument --tolerance: not a rational value: '{tolerance}'" in err

    def test_tolerance_is_exact(self, capsys, tmp_path):
        # The nets differ by the binary64 nearest 1/10, which is above 1/10:
        # --tolerance 0.1 means 1/10 exactly, so it refuses that difference.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_network(line_net(0, 0), a)
        save_network(line_net(F(0.1), 0), b)
        for tolerance, equivalent in (("0.1", False), ("1/3", True),
                                      (str(F(0.1)), True)):
            code, out, _ = run(capsys, "equiv", "--a", a, "--b", b, "--samples", 5,
                               "--tolerance", tolerance)
            assert json.loads(out)["equivalent"] is equivalent
            assert code == (0 if equivalent else 1)


class TestEval:
    def test_rational_coordinates(self, capsys, source_net):
        net, src = source_net
        x = (F(1, 3), F(2, 5))
        code, payload, _ = run_json(capsys, "eval", "--net", src,
                                    "--x", "1/3,2/5")
        assert code == 0
        assert payload["value"] == str(evaluate(net, x)) or \
            payload["value"] == f"{evaluate(net, x)}"

    def test_float_mode_emits_number(self, capsys, source_net):
        net, src = source_net
        code, payload, _ = run_json(capsys, "eval", "--net", src,
                                    "--x", "1/2,1/2", "--float")
        assert code == 0
        assert payload["value"] == round_binary64(evaluate(net, (0.5, 0.5)))

    def test_float_follows_half_open_threshold(self, capsys, tmp_path):
        # just below the threshold 1/3 of the mean M=2 approximator: cell 0,
        # whose readout is 0, although x rounds to the binary64 nearest 1/3
        net = tmp_path / "m2.json"
        assert run(capsys, "approx", "--target", "mean", "--d", 1, "--eps", "1/2",
                   "--M", 2, "--out", net)[0] == 0
        x = f"{10**30 - 3}/{3 * 10**30}"
        for implicit in ((), ("--implicit",)):
            code, payload, _ = run_json(capsys, "eval", "--net", net, "--x", x,
                                        "--float", *implicit)
            assert code == 0 and payload["value"] == 0.0

    def test_float_overflow_prints_inf_string(self, capsys, tmp_path):
        path = tmp_path / "relu2x.json"
        save_network(affine_net(2), path)
        code, out, _ = run(capsys, "eval", "--net", path, "--x", "1e308", "--float")
        assert code == 0 and strict_json(out)["value"] == "inf"

    def test_pretty_indents_payload(self, capsys, tmp_path):
        out = tmp_path / "mean.json"
        run(capsys, "approx", "--target", "mean", "--d", 1, "--eps", "0.25",
            "--out", out)
        code, text, _ = run(capsys, "eval", "--net", out, "--x", "0.3",
                            "--implicit", "--exact", "--pretty")
        assert code == 0 and '\n "value": "1/5"\n' in text
        assert json.loads(text)["value"] == "1/5"

    def test_implicit_requires_approximator_shape(self, capsys, source_net):
        _, src = source_net
        code, _, err = run(capsys, "eval", "--net", src, "--x", "1/2,1/2",
                           "--implicit")
        assert code == 1 and json.loads(err)["error"] == "DomainError"

    def test_implicit_rejects_tampered_approximator(self, capsys, tmp_path,
                                                    tampered_net):
        path = tmp_path / "tampered.json"
        save_network(tampered_net, path)
        code, out, err = run(capsys, "eval", "--net", path, "--x", "0",
                             "--implicit")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_negative_coordinates_after_equals_sign(self, capsys, source_net):
        net, src = source_net
        code, payload, _ = run_json(capsys, "eval", "--net", src, "--x=-1/2,1/3")
        assert code == 0
        assert payload["value"] == str(evaluate(net, (F(-1, 2), F(1, 3))))

    def test_exact_and_float_flags_conflict(self, capsys, source_net):
        _, src = source_net
        code, _, _ = run(capsys, "eval", "--net", src, "--x", "1/2,1/2",
                         "--exact", "--float")
        assert code == 2


@pytest.fixture
def deep_net(tmp_path):
    """A valid d=1 binary net of 7,200 matrices, 1x2 then 1x1, every entry
    1/4. At x = 1/2 it gives 3/2^14401: 4,336 digits in the denominator,
    more than str() prints by default. Its copy with output scale 2
    differs from it everywhere but at 0."""
    net = Network(1, (WeightMatrix.from_rows([["1/4", "1/4"]]),)
                  + (WeightMatrix.from_rows([["1/4"]]),) * 7199, ActivationKind.RELU)
    save_network(net, tmp_path / "deep.json")
    save_network(Network(1, net.matrices, net.activation, F(2)), tmp_path / "deep2.json")
    return tmp_path / "deep.json", tmp_path / "deep2.json"


class TestValuesTooLongToPrint:
    """A value with more digits than str() prints is one JSON error line,
    exit code 1, naming its bit length; no traceback, no partial file."""

    def assert_refused(self, code, out, err, described):
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "DomainError",
                                   "message": f"{described} has too many digits to print"}

    def test_eval(self, capsys, deep_net):
        path, _ = deep_net
        self.assert_refused(*run(capsys, "eval", "--net", path, "--x", "1/2"),
                            "3/<14402-bit integer>")
        code, payload, _ = run_json(capsys, "eval", "--net", path, "--x", "1/2", "--float")
        assert code == 0 and payload["value"] == 0.0

    def test_rescale_leaves_no_file(self, capsys, deep_net, tmp_path):
        path, _ = deep_net
        out = tmp_path / "unit.json"
        self.assert_refused(*run(capsys, "rescale", "--to", "unit", "--in", path, "--out", out),
                            "1/<14401-bit integer>")
        assert not out.exists()

    def test_equiv(self, capsys, deep_net):
        path, doubled = deep_net
        code, payload, _ = run_json(capsys, "equiv", "--a", path, "--b", path)
        assert code == 0 and payload["equivalent"]
        # the first divergence's exact value, at the first sampled point
        self.assert_refused(*run(capsys, "equiv", "--a", path, "--b", doubled, "--samples", 3),
                            "453/<14409-bit integer>")

    def test_equiv_float_prints_outputs_that_round_apart(self, capsys, deep_net, tmp_path):
        path, _ = deep_net
        one = tmp_path / "one.json"
        save_network(Network(1, (WeightMatrix.from_rows([[1, 0]]),), ActivationKind.RELU), one)
        code, out, err = run(capsys, "equiv", "--a", path, "--b", one, "--samples", 3)
        assert code == 1 and out == "" and "too many digits to print" in err
        code, payload, _ = run_json(capsys, "equiv", "--a", path, "--b", one, "--samples", 3,
                                    "--float")
        first = payload["first_divergence"]
        assert code == 1 and not payload["equivalent"]
        assert (first["a"], first["b"]) == (["0.0"], ["1.0"])


class TestReport:
    def test_writes_deterministic_csv(self, capsys, tmp_path):
        argv = ("report", "--targets", "mean,maxcoord", "--eps-list",
                "0.25,0.125", "--dims", "1", "--grid", 51)
        c1 = tmp_path / "r1.csv"
        c2 = tmp_path / "r2.csv"
        code, payload, _ = run_json(capsys, *argv, "--csv", c1)
        assert code == 0
        assert payload["rows"] == 4 and payload["all_passed"]
        run(capsys, *argv, "--csv", c2)
        assert c1.read_bytes() == c2.read_bytes()
        assert c1.read_text().splitlines()[0].startswith("target,d,beta")

    def test_unknown_target_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--targets", "wat", "--eps-list",
                           "0.25", "--csv", tmp_path / "r.csv")
        assert code == 1 and json.loads(err)["error"] == "DomainError"

    def test_hostile_scan_size_is_capacity_error(self, capsys, tmp_path):
        # 10^18 scan points plus 27 representatives: refused before scanning
        code, _, err = run(capsys, "report", "--targets", "const", "--eps-list", "1/2",
                           "--dims", 3, "--grid", 1000000, "--csv", tmp_path / "x.csv")
        error = json.loads(err)
        assert code == 1 and error["error"] == "CapacityError"
        assert (error["required"], error["cap"]) == (10**18 + 27, 10**8)
        assert not (tmp_path / "x.csv").exists()

    def test_epsilon_beyond_binary64_refused(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", "--targets", "mean", "--eps-list", "1e400",
                             "--dims", 1, "--csv", tmp_path / "r.csv")
        assert code == 1 and out == "" and err.count("\n") == 1
        error = strict_json(err)
        assert error["error"] == "DomainError"
        assert error["message"].startswith("epsilon rounds to inf in binary64")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("token", ["x", "1.5"])
    def test_non_integer_dimension_is_validation_error(self, capsys, tmp_path, token):
        code, out, err = run(capsys, "report", "--targets", "const", "--eps-list", "1/2",
                             "--dims", f"1,{token}", "--csv", tmp_path / "r.csv")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "DomainError" and repr(token) in error["message"]
        assert not (tmp_path / "r.csv").exists()


class TestErrorContract:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "bounds", "--wat", 1)[0] == 2

    def test_nonpositive_dimension_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bounds", "--d", 0, "--beta", 1, "--K", 1,
                         "--N", 6, "--m", 1)
        assert code == 2

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--net", tmp_path / "none.json",
                           "--x", "0.5")
        assert code == 3 and json.loads(err)["error"] == "FileNotFoundError"

    def test_corrupt_network_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "eval", "--net", bad, "--x", "0.5")
        assert code == 1 and json.loads(err)["error"] == "ParseError"
        assert json.loads(err)["location"] == "line 1 col 2"

    @pytest.mark.parametrize("rows, cols, entries", [(-1, -2, ["1", "1"]), (0, 2, [])])
    def test_nonpositive_shape_names_its_layer(self, capsys, tmp_path, rows, cols, entries):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format_version": 1, "input_dim": 1, "activation": "relu",
            "matrices": [{"rows": rows, "cols": cols, "entries": entries}]}))
        code, out, err = run(capsys, "eval", "--net", bad, "--x", "0.5")
        assert (code, out) == (1, "") and err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "DimensionError" and error["layer"] == 0

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",                                                # not UTF-8
        b"[" * 200_000,                                               # nested too deeply
        b'{"format_version": 1, "input_dim": ' + b"9" * 5000 + b"}",  # too many digits
    ], ids=["not_utf8", "nested", "long_int"])
    def test_malformed_bytes_are_parse_errors(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code, out, err = run(capsys, "eval", "--net", bad, "--x", "0.5")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert strict_json(err)["error"] == "ParseError"

    def test_every_written_file_reloads(self, capsys, source_net, tmp_path):
        _, src = source_net
        for mode in ("ternary", "binary"):
            out = tmp_path / f"{mode}.json"
            run(capsys, "lower", "--mode", mode, "--in", src, "--out", out)
            load_network(out)


# The README's CLI examples, in order, then one failed check each for
# approx, equiv and report, then the same evals and failed equiv under
# --float: (argv, exit code, stdout, stderr).
PINNED_RUNS = [
    (("approx", "--target", "mean", "--d", 1, "--eps", "0.25", "--out", "mean.json"), 0,
     '{"command": "approx", "target": "mean", "d": 1, "M": 4, "cells": 5, '
     '"epsilon": 0.25, "bound": 0.2, "certified": true, "materialized": true, '
     '"network": "mean.json", "certificate": "mean.cert.json"}\n', ""),
    (("eval", "--net", "mean.json", "--x", "0.3", "--implicit", "--exact"), 0,
     '{"command": "eval", "mode": "exact", "implicit": true, "value": "1/5"}\n', ""),
    (("lower", "--mode", "ternary", "--in", "src.json", "--out", "tern.json"), 0,
     '{"command": "lower", "mode": "ternary", "via_ternary": false, "in": "src.json", '
     '"out": "tern.json", "certificate": "tern.cert.json", "pass": true, '
     '"source": {"input_dim": 2, "depth": 2, "width_max": 4, "sparsity": 9}, '
     '"target": {"weight_set": "ternary_half", "depth": 4, "width_max": 16, '
     '"sparsity": 111}, "bounds": {"depth": 4, "width_max": 16, "sparsity": 204}}\n', ""),
    (("equiv", "--a", "src.json", "--b", "tern.json", "--exact"), 0,
     '{"command": "equiv", "input_dim": 2, "samples": 200, "mode": "exact", '
     '"equivalent": true, "max_abs_diff": 0.0, "first_divergence": null}\n', ""),
    (("rescale", "--to", "unit", "--in", "tern.json", "--out", "unit.json"), 0,
     '{"command": "rescale", "to": "unit", "in": "tern.json", "out": "unit.json", '
     '"weight_set": "ternary_unit", "output_scale": "1/32"}\n', ""),
    (("eval", "--net", "src.json", "--x", "1/3,2/5"), 0,
     '{"command": "eval", "mode": "exact", "implicit": false, "value": "0"}\n', ""),
    (("bounds", "--d", 1, "--beta", 1, "--K", 1, "--N", 6, "--m", 1), 0,
     '{"command": "bounds", "L": 81, "p_inf": 144, "s_max": 133214544, '
     '"error_factor": 3.1666666666666665, "lowered_ternary": {"depth": 83, '
     '"width": 576, "sparsity": 2131432744}, "lowered_binary": {"depth": 86, '
     '"width": 4608}, "rounding": "non-integer log2 terms rounded up '
     '(deeper/wider is admissible); sparsity product rounded down"}\n', ""),
    (("report", "--targets", "mean,root", "--eps-list", "0.2,0.1", "--dims", 1,
      "--grid", 1001, "--csv", "report.csv"), 0,
     '{"command": "report", "rows": 4, "csv": "report.csv", "all_passed": true}\n', ""),
    (("approx", "--target", "mean", "--d", 1, "--eps", "0.05", "--M", 2, "--out", "m2.json"), 1,
     '{"command": "approx", "target": "mean", "d": 1, "M": 2, "cells": 3, '
     '"epsilon": 0.05, "bound": 0.3333333333333333, "certified": false, '
     '"materialized": true, "network": "m2.json", "certificate": "m2.cert.json"}\n',
     '{"error": "DomainError", "message": "resolution M=2 does not certify eps=0.05"}\n'),
    (("equiv", "--a", "a.json", "--b", "b.json", "--samples", 64), 1,
     '{"command": "equiv", "input_dim": 1, "samples": 64, "mode": "exact", '
     '"equivalent": false, "max_abs_diff": 0.5, "first_divergence": '
     '{"point": ["197/256"], "a": ["0"], "b": ["1/2"]}}\n',
     '{"error": "DomainError", "message": "networks differ (max |diff| = 0.5)"}\n'),
    (("report", "--targets", "const", "--eps-list", "1/2", "--dims", "x",
      "--csv", "rx.csv"), 1,
     "", '{"error": "DomainError", "message": "dimension must be an integer, got \'x\'"}\n'),
    (("eval", "--net", "mean.json", "--x", "0.3", "--implicit", "--float"), 0,
     '{"command": "eval", "mode": "float", "implicit": true, "value": 0.2}\n', ""),
    (("eval", "--net", "src.json", "--x", "1/3,2/5", "--float"), 0,
     '{"command": "eval", "mode": "float", "implicit": false, "value": 0.0}\n', ""),
    (("equiv", "--a", "a.json", "--b", "b.json", "--samples", 64, "--float"), 1,
     '{"command": "equiv", "input_dim": 1, "samples": 64, "mode": "float", '
     '"equivalent": false, "max_abs_diff": 0.5, "first_divergence": '
     '{"point": ["197/256"], "a": ["0.0"], "b": ["0.5"]}}\n',
     '{"error": "DomainError", "message": "networks differ (max |diff| = 0.5)"}\n'),
]


class TestOutputContract:
    def test_default_stdout_is_pinned(self, capsys, workdir):
        for argv, code, out, err in PINNED_RUNS:
            assert run(capsys, *argv) == (code, out, err), argv

    def test_pretty_is_the_same_object(self, capsys, workdir):
        for argv, *_ in PINNED_RUNS:
            code, out, err = run(capsys, *argv)
            pretty_code, pretty_out, pretty_err = run(capsys, *argv, "--pretty")
            assert (pretty_code, pretty_err) == (code, err), argv
            if out:
                assert pretty_out.startswith('{\n "command": ')
                assert strict_json(pretty_out) == strict_json(out), argv
            else:
                assert pretty_out == ""
