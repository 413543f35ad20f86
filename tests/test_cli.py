import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from postedprice import PricingTree, RegularityError, build_system, cli, uniform_face_optimum
from postedprice.cli import main
from postedprice.optimizer import WARM_RANDOM_STARTS, _start_count

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# myerson


def test_myerson_uniform(capsys):
    code, out, _ = run(capsys, "myerson", "--dist", "uniform:0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_star"] == pytest.approx(0.5, abs=1e-6)
    assert payload["h_star"] == pytest.approx(0.25, abs=1e-9)


def test_myerson_beta_oracle_value(capsys):
    code, out, _ = run(capsys, "myerson", "--dist", "beta:4,2")
    assert code == 0
    assert json.loads(out)["h_star"] == pytest.approx(0.409648251967, abs=1e-9)


def test_myerson_wide_support_terminates(capsys):
    code, out, _ = run(capsys, "myerson", "--dist", "uniform:0,1e7")
    assert code == 0
    assert json.loads(out)["h_star"] == pytest.approx(2.5e6, rel=1e-12)


def test_malformed_dist_is_usage_error(capsys):
    code, _, err = run(capsys, "myerson", "--dist", "nope:1,2")
    assert code == 2
    assert "usage error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "myerson", "--dist", "uniform:0,1", "--bogus")
    assert code == 2


def test_no_command_prints_usage(capsys):
    assert run(capsys)[0] == 2


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: postedprice"),
    (["optimize", "--help"], "usage: postedprice optimize"),
])
def test_help_prints_usage_to_stdout(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith(usage) and err == ""


def test_the_package_runs_as_a_module():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "postedprice", "--help"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: postedprice")


@pytest.mark.parametrize("spec", ["uniform:0,1e-310", "texp:1,1e-310"])
def test_a_support_too_narrow_for_floats_is_refused_not_looped_on(spec):
    # its density overflows, so every trial point of a line search would be NaN
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "postedprice", "optimize", "--dist", spec,
                           "--gs", "0.8", "--gb", "0.3", "--horizon", "2"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "too narrow" in done.stderr and "Traceback" not in done.stderr


_CAPPED_MEMORY = 512 * 2**20  # bytes of address space: ample for a small solve


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_CAPPED_MEMORY, _CAPPED_MEMORY))


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.3", "--horizon", "2",
      "--starts", "2"], None),  # the control: the cap leaves room for a solve
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--grid-count", "1", "--horizon", "1000000"],
     "horizon 1000000 exceeds the enumeration guard 20"),
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--grid-count", "1", "--tau-list", "2,1000000"],
     "tau 1000000 exceeds the enumeration guard 20"),
    (["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.3",
      "--horizon", "1000000"], "horizon 1000000 exceeds the enumeration guard 20"),
], ids=["control", "sweep-horizon", "sweep-tau-list", "optimize-horizon"])
def test_an_oversized_depth_is_refused_before_it_is_built(argv, message):
    # under a capped address space a lost guard fails fast instead of filling memory
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "postedprice", *argv], preexec_fn=_cap_memory,
                          env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == (0 if message is None else 3), done.stderr
    if message is not None:
        assert (done.stdout, done.stderr) == ("", f"error: {message}\n")


@pytest.mark.parametrize("horizon, message", [
    (7, "horizon 7 exceeds the supported ceiling 6 (k = 63)"),
    (20, "horizon 20 exceeds the supported ceiling 6 (k = 63)"),
    (21, "horizon 21 exceeds the enumeration guard 20"),
])
def test_optimize_names_the_ceiling_a_horizon_exceeds(capsys, horizon, message):
    code, out, err = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                         "--gb", "0.3", "--horizon", str(horizon))
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.3", "--tau", "7"],
     "tau 7 exceeds the supported ceiling 6 (k = 63)"),
    (["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.3", "--tau", "20"],
     "tau 20 exceeds the supported ceiling 6 (k = 63)"),
    (["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.3", "--tau", "21"],
     "tau 21 exceeds the enumeration guard 20"),
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--grid-count", "1", "--tau-list", "2,7"],
     "tau 7 exceeds the supported ceiling 6 (k = 63)"),
], ids=["optimize-tau-7", "optimize-tau-20", "optimize-tau-21", "sweep-tau-list-2-7"])
def test_a_tau_above_the_ceiling_is_named_as_tau(capsys, argv, message):
    # the tau-step game is solved on its tau-round truncation, whose horizon
    # the user never gave
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# optimize


def test_optimize_beats_baseline(capsys):
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                       "--gb", "0.2", "--horizon", "2", "--starts", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] > 1.0
    assert payload["value"] == pytest.approx(0.484033613445, abs=1e-6)
    assert payload["tree"]["horizon"] == 2
    assert payload["converged"] is True


@pytest.mark.parametrize("spec", ["uniform:0,1", "uniform:0,1e17"])
def test_optimize_ratio_does_not_depend_on_the_valuation_unit(capsys, spec):
    code, out, _ = run(capsys, "optimize", "--dist", spec, "--gs", "0.8", "--gb", "0.3",
                       "--horizon", "2")
    assert code == 0
    payload = json.loads(out)
    assert f"{payload['ratio']:.12g}" == "1.05494505495"
    assert payload["converged"] is True


def test_optimize_equal_rates_ratio_one(capsys):
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.5",
                       "--gb", "0.5", "--horizon", "2", "--starts", "6")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_optimize_requires_horizon_or_tau(capsys):
    code, _, err = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                       "--gb", "0.2")
    assert code == 2 and "usage error" in err


def test_optimize_tau_mode_reports_bounds(capsys):
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                       "--gb", "0.2", "--tau", "2", "--starts", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["opt_lower"] <= payload["opt_upper"]
    assert payload["opt_upper"] == pytest.approx(
        payload["opt_lower"] + 0.8**2 / 0.2 * 0.5)


def test_optimize_regularity_violation_is_domain_error(capsys):
    golden = (math.sqrt(5) - 1) / 2
    code, _, err = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.9",
                       "--gb", f"{golden!r}", "--horizon", "3", "--starts", "2")
    assert code == 3
    assert "not regular" in err


def test_perturb_restores_regularity(capsys):
    golden = (math.sqrt(5) - 1) / 2
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.9",
                       "--gb", f"{golden!r}", "--horizon", "3", "--starts", "2",
                       "--perturb")
    assert code == 0
    assert json.loads(out)["value"] > 0


def test_perturb_applies_in_tau_mode(tmp_path, capsys):
    # the truncated buyer at tau = 3 is not regular; --perturb must jitter
    # it in optimize exactly as it does in sweep
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                       "--gb", "0.5", "--tau", "3", "--perturb")
    assert code == 0
    out_file = tmp_path / "tau.csv"
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-start", "0.5", "--grid-count",
                     "1", "--tau-list", "3", "--perturb", "--out", str(out_file))
    assert code == 0
    header, row = (line.split(",") for line in out_file.read_text().splitlines())
    assert f"{json.loads(out)['value']:.12g}" == dict(zip(header, row))["value_tau3"]


def test_rate_out_of_range_is_usage_error(capsys):
    code, _, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "1.2",
                     "--gb", "0.2", "--horizon", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_finite_mode(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-start", "0.1",
                     "--grid-step", "0.05", "--grid-count", "12",
                     "--horizon", "2", "--starts", "6", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "gb,e,0,1,value,ratio"
    assert len(lines) == 13
    rows = [line.split(",") for line in lines[1:]]
    ratios = [float(r[-1]) for r in rows]
    assert all(r > 1.0 for r in ratios)
    # prices vary continuously along the grid
    for col in range(1, 4):
        prices = [float(r[col]) for r in rows]
        assert max(abs(a - b) for a, b in zip(prices, prices[1:])) < 0.05


def test_sweep_empty_grid_writes_header_only(tmp_path, capsys):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-count", "0",
                     "--horizon", "2", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "gb,e,0,1,value,ratio\n"


def test_sweep_tau_mode_ratios_monotone(tmp_path, capsys):
    out_file = tmp_path / "tau.csv"
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-start", "0.2",
                     "--grid-step", "0.1", "--grid-count", "2",
                     "--tau-list", "2,3,4", "--starts", "6", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "gb"
    assert "ratio_tau2" in header and "ratio_tau4" in header
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["ratio_tau2"]) <= float(row["ratio_tau3"]) + 1e-6
        assert float(row["ratio_tau3"]) <= float(row["ratio_tau4"]) + 1e-6
        assert float(row["ratio_tau4"]) > 1.0


def test_sweep_determinism(tmp_path, capsys):
    args = ("sweep", "--dist", "uniform:0,1", "--fix", "gb", "--fixed-value",
            "0.2", "--grid-start", "0.3", "--grid-step", "0.1", "--grid-count",
            "3", "--horizon", "2", "--starts", "6", "--seed", "7")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def recorded_sweep(monkeypatch, *argv):
    """Runs `sweep` with `argv`; returns each solve's (args, kwargs, result) in order."""
    solve, solves = cli.maximize_L, []

    def recorded(*args, **kwargs):
        solves.append((args, kwargs, solve(*args, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(cli, "maximize_L", recorded)
    assert main(["sweep", *argv, "--out", os.devnull]) == 0
    return solves


@pytest.mark.parametrize("argv, rows", [
    (["--horizon", "2"], 149),  # the T = 2 figure grid
    (["--tau-list", "2,3", "--grid-step", "0.06", "--grid-count", "11"], 11),
], ids=["horizon-2", "tau-list-2-3"])
def test_a_continued_sweep_reaches_every_exact_uniform_optimum(monkeypatch, argv, rows):
    # each row after the first starts at the row before's optimum at the same
    # depth with the reduced start list, and must still land on the exact
    # optimum of its kernel, certified
    solves = recorded_sweep(monkeypatch, "--dist", "uniform:0,1", "--fix", "gs",
                            "--fixed-value", "0.8", *argv)
    assert len(solves) % rows == 0
    previous = {}  # k -> the optimum of the row before at that depth
    for (dist, buyer, seller), kwargs, result in solves:
        k = len(result.v_star)
        assert kwargs["warm"] is previous.get(k)
        assert result.starts == (3 + WARM_RANDOM_STARTS if k in previous else _start_count(None, k))
        _, exact = uniform_face_optimum(build_system(buyer, seller).Xi, dist)
        assert result.value == pytest.approx(exact, rel=1e-12), buyer
        assert result.converged, buyer
        previous[k] = result.v_star
    assert len(previous) == len(solves) // rows


def test_sweep_grid_outside_unit_interval_is_usage_error(capsys):
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-start", "0.9",
                     "--grid-step", "0.1", "--grid-count", "3", "--horizon", "2")
    assert code == 2


def test_sweep_unwritable_path_is_io_error(capsys):
    code, _, err = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                       "--fixed-value", "0.8", "--grid-count", "0", "--horizon",
                       "2", "--out", "/nonexistent-dir/x.csv")
    assert code == 4
    assert "I/O" in err


def test_a_failing_sweep_names_its_grid_point(capsys):
    # grid point 99 is gb = 0.01 + 98 * 0.005 = 0.5, where truncate(0.5, 0.8, 2)
    # gives the buyer weights [1, 1], so strategies 01 and 10 tie
    code, out, err = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                         "--fixed-value", "0.8", "--tau-list", "2")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: at gb = 0.5: buyer discount is not regular: strategies 01 and 10 "
        "share the discounted quantity (gap 0)"]


def test_a_failing_sweep_point_keeps_its_exception():
    args = cli.build_parser().parse_args([
        "sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
        "--tau-list", "2", "--grid-start", "0.5", "--grid-count", "1"])
    with pytest.raises(RegularityError, match=r"^at gb = 0\.5: buyer discount is not regular") \
            as info:
        cli.cmd_sweep(args)
    assert info.value.pair == ("01", "10")


# ---------------------------------------------------------------------------
# simulate


def write_tree(path, horizon, prices):
    path.write_text(json.dumps({"horizon": horizon, "prices": prices}))


def test_simulate_constant_tree(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    write_tree(tree_file, 2, {"": 0.5, "0": 0.5, "1": 0.5})
    code, out, _ = run(capsys, "simulate", "--tree", str(tree_file), "--dist",
                       "uniform:0,1", "--gs", "0.5", "--gb", "0.5",
                       "--grid-size", "21", "--out", str(tmp_path / "sim.csv"))
    assert code == 0
    expected = (1 + 0.5) * 0.25  # Gamma^S at horizon 2 times H*
    assert json.loads(out)["expected_revenue"] == pytest.approx(expected, abs=1e-12)
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert lines[0] == "v,strategy,S,R,Q"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert first[1] == "00"  # v=0 rejects everything
    last = lines[-1].split(",")
    assert last[1] == "11"


def test_simulate_rejects_negative_price_tree(tmp_path, capsys):
    tree_file = tmp_path / "bad.json"
    write_tree(tree_file, 2, {"": 0.5, "0": -0.1, "1": 0.5})
    code, _, err = run(capsys, "simulate", "--tree", str(tree_file), "--dist",
                       "uniform:0,1", "--gs", "0.5", "--gb", "0.5")
    assert code == 3
    assert "/prices/0" in err


def test_simulate_rejects_incomplete_tree(tmp_path, capsys):
    tree_file = tmp_path / "bad.json"
    write_tree(tree_file, 2, {"": 0.5, "0": 0.5})
    code, _, err = run(capsys, "simulate", "--tree", str(tree_file), "--dist",
                       "uniform:0,1", "--gs", "0.5", "--gb", "0.5")
    assert code == 3


def test_simulate_missing_file_is_io_error(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--tree", str(tmp_path / "none.json"),
                     "--dist", "uniform:0,1", "--gs", "0.5", "--gb", "0.5")
    assert code == 4


# ---------------------------------------------------------------------------
# bigdeal / truncate


def test_bigdeal_revenue(capsys):
    code, out, _ = run(capsys, "bigdeal", "--dist", "uniform:0,1", "--gb", "0.5",
                       "--gs", "0.5", "--tau", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_revenue"] == pytest.approx(0.5, abs=1e-9)
    assert payload["first_price"] == pytest.approx(1.0, abs=1e-6)
    assert payload["penalty_price"] == pytest.approx(2.0, abs=1e-6)


def test_truncate_outputs_weights(capsys):
    code, out, _ = run(capsys, "truncate", "--gb", "0.5", "--gs", "0.8",
                       "--tau", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["buyer_weights"] == pytest.approx([1.0, 1.0])
    assert payload["seller_weights"] == pytest.approx([1.0, 4.0])
    assert payload["seller_tail"] == pytest.approx(0.8**2 / 0.2)


# ---------------------------------------------------------------------------
# config file


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dist": "uniform:0,1", "gs": 0.8, "gb": 0.2,
                                  "horizon": 2, "starts": 6}))
    code, out, _ = run(capsys, "optimize", "--config", str(config))
    assert code == 0
    assert json.loads(out)["gb"] == 0.2
    code, out, _ = run(capsys, "optimize", "--config", str(config), "--gb", "0.3")
    assert code == 0
    assert json.loads(out)["gb"] == 0.3


def test_json_output_deterministic(capsys):
    args = ("optimize", "--dist", "uniform:0,1", "--gs", "0.7", "--gb", "0.3",
            "--horizon", "2", "--starts", "6", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_full_fig_protocol_row_count_and_continuity(tmp_path, capsys):
    # the two-round protocol: gs fixed at 0.8, gb on 0.01 + i*0.005, i < 149
    out_file = tmp_path / "protocol.csv"
    code, _, _ = run(capsys, "sweep", "--dist", "uniform:0,1", "--fix", "gs",
                     "--fixed-value", "0.8", "--grid-start", "0.01",
                     "--grid-step", "0.005", "--grid-count", "149",
                     "--horizon", "2", "--starts", "4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 150
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][0]) == pytest.approx(0.01)
    assert float(rows[-1][0]) == pytest.approx(0.75)
    for col in range(1, 4):  # each node price moves continuously in gb
        prices = [float(r[col]) for r in rows]
        assert max(abs(a - b) for a, b in zip(prices, prices[1:])) < 0.05
    assert all(float(r[-1]) > 1.0 for r in rows)


def test_rate_order_warning_does_not_fail(capsys, recwarn):
    code, out, _ = run(capsys, "optimize", "--dist", "uniform:0,1", "--gs", "0.2",
                       "--gb", "0.8", "--horizon", "2", "--starts", "4")
    assert code == 0
    assert json.loads(out)["value"] > 0


@pytest.mark.parametrize("argv,code", [
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--tau-list", "2,x"], 2),
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--tau-list", ","], 2),
    (["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
      "--tau-list", "2,2"], 2),
    (["myerson", "--config", "CONFIG"], 3),
    (["myerson", "--config", "CONFIG_ARRAY"], 3),
    (["simulate", "--tree", "TREE", "--dist", "uniform:0,1", "--gs", "0.5",
      "--gb", "0.5", "--grid-size", "-1"], 2),
    (["bigdeal", "--dist", "uniform:0,1", "--gs", "0.5", "--gb", "0.8",
      "--tau", "21"], 3),
    (["truncate", "--gb", "0.5", "--gs", "0.8", "--tau", "21"], 3),
    (["optimize", "--dist", "texp:1e308,1", "--gs", "0.8", "--gb", "0.3",
      "--horizon", "2"], 3),
    (["sweep", "--dist", "beta:1e-300,1", "--fix", "gs", "--fixed-value", "0.8",
      "--horizon", "2"], 3),
    (["simulate", "--tree", "HUGE_TREE", "--dist", "uniform:0,1", "--gs", "0.5",
      "--gb", "0.5"], 3),
    *[pytest.param(["optimize", "--dist", "uniform:1e308,1.7e308", "--gs", "0.8", "--gb", "0.3",
                    *mode, "--starts", "2"], 3)  # the baseline overflows
      for mode in (["--tau", "2"], ["--horizon", "2"], ["--horizon", "3"])],
    (["optimize", "--dist", "uniform:0,1.7e308", "--gs", "0.8", "--gb", "0.3",
      "--horizon", "2", "--starts", "2"], 3),  # the form is finite at the start, its step is not
    (["optimize", "--dist", "uniform:0,1e308", "--gs", "0.5", "--gb", "0.5",
      "--horizon", "2"], 3),  # the form is finite, the line search's longest step is not
    # texp's mass 1 - exp(-rate * bound) is 0 (it printed "h_star": NaN) or subnormal
    (["myerson", "--dist", "texp:9.025971879324148e-277,1.4405579633921662e-92"], 2),
    (["optimize", "--dist", "texp:5.03e-55,8.27e-262", "--gs", "0.8", "--gb", "0.3",
      "--horizon", "2"], 2),
], ids=["tau-list-word", "tau-list-empty", "tau-list-repeated", "config-not-json",
        "config-array", "grid-size-negative", "bigdeal-tau-above-guard",
        "truncate-tau-above-guard", "optimize-zero-baseline", "sweep-zero-baseline",
        "simulate-huge-horizon", "optimize-baseline-overflows-tau2",
        "optimize-baseline-overflows-T2", "optimize-baseline-overflows-T3",
        "optimize-form-overflows", "optimize-step-overflows", "myerson-texp-mass-zero",
        "optimize-texp-mass-subnormal"])
def test_bad_inputs_end_in_typed_errors(tmp_path, capsys, argv, code):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    config_array = tmp_path / "config_array.json"
    config_array.write_text(json.dumps(["--dist", "uniform:0,1"]))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(PricingTree.constant(2, 0.5).to_json_dict()))
    huge_tree = tmp_path / "huge_tree.json"
    huge_tree.write_text(json.dumps({"horizon": 14300, "prices": {}}))
    paths = {"CONFIG": str(config), "CONFIG_ARRAY": str(config_array), "TREE": str(tree),
             "HUGE_TREE": str(huge_tree)}
    got, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert got == code
    assert out == ""
    assert err.startswith("usage error: " if code == 2 else "error: ") and err.count("\n") == 1


SWEEP = ["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8"]
OPTIMIZE = ["optimize", "--dist", "uniform:0,1", "--gs", "0.8", "--gb", "0.2"]


@pytest.mark.parametrize("config,argv", [
    ({"horizon": "x"}, SWEEP),
    ({"grid_count": "abc"}, SWEEP + ["--horizon", "2"]),
    ({"horizon": 2.5}, OPTIMIZE),
    ({"horzon": 2}, OPTIMIZE),
    ({"horzon": 2}, OPTIMIZE + ["--horizon", "2"]),
    ({"out": ["a.json"]}, OPTIMIZE + ["--horizon", "2"]),
    (None, SWEEP + ["--horizon", "2", "--grid-step", "nan", "--grid-count", "2"]),
    (None, SWEEP + ["--horizon", "2", "--grid-start", "nan", "--grid-count", "2"]),
    (None, OPTIMIZE + ["--horizon", "2", "--seed", "-1"]),
    (None, OPTIMIZE + ["--horizon", "2", "--tau", "3"]),
    (None, SWEEP + ["--horizon", "2", "--tau-list", "2"]),
    (None, ["myerson", "--dist", "beta:nan,1"]),
    (None, ["myerson", "--dist", "beta:x,1"]),
    (None, OPTIMIZE + ["--horizon", "2", "--starts", "0"]),
    (None, OPTIMIZE + ["--horizon", "0"]),
    (None, OPTIMIZE + ["--tau", "0"]),
    (None, ["bigdeal", "--dist", "uniform:0,1", "--gs", "0.5", "--gb", "0.8",
            "--tau", "0"]),
    (None, OPTIMIZE + ["--horizon", "2", "--perturb", "inf"]),
    (None, OPTIMIZE + ["--horizon", "2", "--perturb", "-3"]),
], ids=["config-horizon-word", "config-grid-count-word", "config-horizon-float",
        "config-unknown-key", "config-unknown-key-with-horizon", "config-list-value",
        "grid-step-nan", "grid-start-nan", "seed-negative", "horizon-and-tau",
        "horizon-and-tau-list", "dist-nan", "dist-word", "starts-zero", "horizon-zero",
        "optimize-tau-zero", "bigdeal-tau-zero", "perturb-inf", "perturb-negative"])
def test_usage_errors_are_one_line(tmp_path, capsys, config, argv):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_config_null_entry_keeps_the_default(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dist": "uniform:0,1", "gs": 0.8, "gb": 0.2,
                                  "horizon": 2, "starts": 6, "seed": None}))
    code, out, _ = run(capsys, "optimize", "--config", str(config))
    assert code == 0
    assert json.loads(out)["seed"] == 0



# ---------------------------------------------------------------------------
# recorded output


@pytest.mark.parametrize("name,argv", [
    ("sweep_t2.csv", SWEEP + ["--horizon", "2", "--grid-start", "0.05",
                              "--grid-step", "0.15", "--grid-count", "5"]),
    ("sweep_tau_ladder.csv", SWEEP + ["--tau-list", "2,3,4,5,6", "--grid-start", "0.2",
                                      "--grid-count", "1"]),
    ("optimize_tau3.json", ["optimize", "--dist", "uniform:0,1", "--gs", "0.8",
                            "--gb", "0.2", "--tau", "3"]),
    ("bigdeal_tau5.json", ["bigdeal", "--dist", "beta:4,2", "--gb", "0.8",
                           "--gs", "0.2", "--tau", "5"]),
    ("truncate_tau4.json", ["truncate", "--gb", "0.5", "--gs", "0.8", "--tau", "4"]),
])
def test_sweep_output_matches_the_recorded_csv(capsys, name, argv):
    # byte for byte; a change that moves these digits on purpose re-records
    # the file and says so
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / name).read_bytes().decode()
