import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twospin
from twospin import cli, reduction, spins
from twospin.analysis import rate_bound
from twospin.cli import main
from twospin.graphs import MultiGraph, cycle_graph, single_edge, write_graph


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.g"
    write_graph(single_edge(), path)
    return str(path)


@pytest.fixture
def anti3_file(tmp_path):
    path = tmp_path / "anti3.e2"
    path.write_text("p e2lin2 3 3\n1 2 1\n2 3 1\n3 1 1\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _strict_json(text):
    """json.loads that refuses NaN and the infinities, as strict JSON does."""
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in JSON")

    return json.loads(text, parse_constant=refuse)


def test_z_single_edge(capsys, edge_file):
    code, rep = _run(capsys, ["z", "--graph", edge_file, "--beta", "1",
                              "--gamma", "1", "--mu", "1"])
    assert code == 0
    assert rep["outputs"]["log_z"]["value"] == pytest.approx(math.log(4))
    assert rep["outputs"]["log_z"]["scale"] == "log"


def test_theta_star_anticycle(capsys, anti3_file):
    code, rep = _run(capsys, ["theta-star", "--instance", anti3_file])
    assert code == 0
    assert rep["outputs"]["max_satisfied"]["value"] == 2


def test_theta_star_counts_past_uint16(capsys, tmp_path):
    path = tmp_path / "wrap.e2"
    path.write_text("p e2lin2 2 65537\n" + "1 2 0\n" * 65536 + "1 2 1\n")
    code, rep = _run(capsys, ["theta-star", "--instance", str(path)])
    assert code == 0
    assert rep["outputs"]["max_satisfied"]["value"] == 65536
    assert rep["outputs"]["witness"] == [0, 0]


@pytest.mark.parametrize("command, flag", [("z", "--max-vertices"),
                                           ("theta-star", "--max-vars")])
def test_cap_flag_admits_exactly_up_to_its_value(capsys, tmp_path, anti3_file,
                                                 command, flag):
    """The cap flag is the one override: at the input's size the command
    runs, one below it exits 3 and the refusal names the cap."""
    if command == "z":
        graph = tmp_path / "c5.g"
        write_graph(cycle_graph(5), graph)
        argv, size = ["z", "--graph", str(graph), "--beta", "1", "--gamma", "1"], 5
    else:
        argv, size = ["theta-star", "--instance", anti3_file], 3
    assert main(argv + [flag, str(size)]) == 0
    capsys.readouterr()
    assert main(argv + [flag, str(size - 1)]) == 3
    err = capsys.readouterr().err
    assert f"cap {flag[2:].replace('-', '_')}={size - 1}" in err
    assert "force" not in err


@pytest.mark.parametrize("command", ["z", "theta-star"])
def test_force_flag_is_gone(capsys, edge_file, anti3_file, command):
    argv = (["z", "--graph", edge_file, "--beta", "1", "--gamma", "1"]
            if command == "z" else ["theta-star", "--instance", anti3_file])
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--force"]) == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_uniqueness_and_threshold(capsys):
    code, rep = _run(capsys, ["uniqueness", "--beta", "0.5", "--gamma", "0.5",
                              "--degree", "2"])
    assert code == 0
    assert rep["outputs"]["derivative_magnitude"]["value"] == pytest.approx(2 / 3)
    code, rep = _run(capsys, ["threshold", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 0
    assert rep["outputs"]["degree"]["value"] == 3


@pytest.mark.parametrize("max_degree", [2 ** 62, 2 ** 63 - 1, 2 ** 63])
def test_threshold_past_its_degree_cap_exits_3(capsys, max_degree):
    argv = ["threshold", "--beta", "0.99", "--gamma", "0.99", "--max-degree", str(max_degree)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds cap" in captured.err
    assert "Traceback" not in captured.err


def test_translate_field(capsys):
    code, rep = _run(capsys, ["translate-field", "--beta", "0.5", "--gamma", "2",
                              "--mu", "4", "--degree", "2"])
    assert code == 0
    assert rep["outputs"]["beta_prime"]["value"] == pytest.approx(1.0)
    assert rep["outputs"]["per_edge_log_prefactor"]["value"] == pytest.approx(
        math.log(2))


def test_gadget_and_reduce_files(capsys, tmp_path):
    out = tmp_path / "h.graph"
    code, rep = _run(capsys, ["gadget", "--side", "4", "--delta", "3",
                              "--seed", "5", "--out", str(out)])
    assert code == 0
    assert rep["outputs"]["distinct_degrees"] == [3]
    assert out.exists()

    inst = tmp_path / "i.e2"
    inst.write_text("p e2lin2 2 2\n1 2 0\n1 2 1\n")
    code, rep = _run(capsys, ["reduce", "--instance", str(inst), "--delta", "2",
                              "--delta-prime", "1", "--block-size", "1",
                              "--seed", "3", "--out-prefix",
                              str(tmp_path / "r")])
    assert code == 0
    assert rep["checks"][0]["pass"] is True
    assert (tmp_path / "r.graph").exists()
    assert (tmp_path / "r.blocks").exists()


def test_decode_command(capsys):
    code, rep = _run(capsys, ["decode", "--log-y", "3.0", "--n", "2", "--m", "2",
                              "--log-c", "0.0", "--log-d", "1.0"])
    assert code == 0
    expect = (3.0 - math.log1p(1e-4) - 2 * math.log(2) - 0.03 * 4) / 2
    assert rep["outputs"]["satisfied_estimate"]["value"] == pytest.approx(expect)


def test_phase_map(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, rep = _run(capsys, [
        "phase-map", "--beta-min", "0.2", "--beta-max", "0.8", "--beta-steps", "3",
        "--gamma-min", "0.2", "--gamma-max", "0.8", "--gamma-steps", "3",
        "--degree", "40", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,gamma,mu,d,region,x_hat,deriv_mag"
    assert len(lines) == 10
    assert rep["outputs"]["rows"]["value"] == 9
    # d = 40 is beyond every unit-square threshold for these parameters
    assert all("non-uniqueness" in ln for ln in lines[1:])


# the CSV was opened, and its header written, before the first block was
# classified, so each of these left a one-line file behind
@pytest.mark.parametrize("grid", [
    ["--beta-min", "2", "--beta-max", "3", "--beta-steps", "2", "--gamma-min", "2",
     "--gamma-max", "3", "--gamma-steps", "2", "--degree", "0"],
    ["--beta-min", "-1", "--beta-max", "0.5", "--beta-steps", "3", "--gamma-min",
     "0.1", "--gamma-max", "0.5", "--gamma-steps", "3", "--degree", "4"],
    ["--beta-min", "0.1", "--beta-max", "0.5", "--beta-steps", "3", "--gamma-min",
     "0.1", "--gamma-max", "0.5", "--gamma-steps", "3", "--degree", "4", "--mu", "0"]],
    ids=["degree-0", "beta-min-1", "mu-0"])
def test_phase_map_refused_by_its_first_block_leaves_no_file(capsys, tmp_path, grid):
    out = tmp_path / "grid.csv"
    code, _ = _run(capsys, ["phase-map", *grid, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    out.write_text("kept\n")  # nor does it truncate one
    assert _run(capsys, ["phase-map", *grid, "--out", str(out)])[0] == 2
    assert out.read_text() == "kept\n"


def test_phase_map_refused_by_a_later_block_keeps_the_rows_before(capsys, tmp_path,
                                                                  monkeypatch):
    # at d = 6000 the fixed point of (2.5, 0), the third cell, overflows a double
    monkeypatch.setattr(twospin.uniqueness, "PHASE_BLOCK_CELLS", 1)
    out = tmp_path / "grid.csv"
    code, _ = _run(capsys, ["phase-map", "--beta-min", "0", "--beta-max", "2.5",
                            "--beta-steps", "2", "--gamma-min", "0", "--gamma-max",
                            "2.5", "--gamma-steps", "2", "--degree", "6000",
                            "--out", str(out)])
    assert code == 2
    lines = out.read_text().splitlines()
    assert [ln.split(",")[:2] for ln in lines] == [["beta", "gamma"], ["0.0", "0.0"],
                                                   ["0.0", "2.5"]]


COUNT_FLAGS = [
    ("z", "--threads"), ("phase-map", "--beta-steps"),
    ("phase-map", "--gamma-steps"), ("gadget", "--side"), ("decode", "--n"),
    ("decode", "--m"), ("verify polarized", "--pairs"),
    ("verify polarized", "--threads"), ("verify gadget-mean", "--trials"),
    ("verify expander", "--side"), ("verify expander", "--seeds"),
    ("verify field", "--pairs"), ("verify field", "--threads"),
    ("verify sandwich", "--seeds"), ("verify sandwich", "--threads"),
    ("verify coupling", "--trials"),
]


def test_count_flags_are_all_listed():
    typed = set()
    for prefix, table in (("", cli.COMMANDS), ("verify ", cli.CHECKS)):
        for command, (_, _, specs) in table.items():
            typed |= {(prefix + command, flags[0]) for flags, options in specs
                      if options.get("type") is cli.positive_int}
    assert typed == set(COUNT_FLAGS)


def test_exit_codes(capsys, edge_file, tmp_path):
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # an empty grid is a usage error
    assert main(["phase-map", "--beta-min", "0.2", "--beta-max", "0.8",
                 "--beta-steps", "0", "--gamma-min", "0.2", "--gamma-max",
                 "0.8", "--gamma-steps", "3", "--degree", "5", "--out",
                 str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    assert main(["z", "--graph", edge_file, "--beta", "1", "--gamma", "1",
                 "--max-vertices", "1"]) == 3
    capsys.readouterr()
    assert main(["z", "--graph", str(tmp_path / "missing.g"), "--beta", "1",
                 "--gamma", "1"]) == 2
    capsys.readouterr()
    # any I/O error is a usage error, not a verification failure
    assert main(["z", "--graph", str(tmp_path), "--beta", "1",
                 "--gamma", "1"]) == 2
    capsys.readouterr()
    # rate-bound scan parameters outside their range
    for bad in (["--lambda", "2"], ["--lambda", "-0.5"], ["--step", "0"],
                ["--step", "inf"]):
        assert main(["verify", "rate-bound", *bad]) == 2
    capsys.readouterr()
    # a count of 0 (and a number JSON cannot hold) is refused at parse time
    required = {
        "z": ["--graph", edge_file, "--beta", "1", "--gamma", "1"],
        "phase-map": ["--beta-min", "0.2", "--beta-max", "0.8", "--beta-steps", "3",
                      "--gamma-min", "0.2", "--gamma-max", "0.8", "--gamma-steps",
                      "3", "--degree", "5", "--out", str(tmp_path / "x.csv")],
        "gadget": ["--side", "3", "--delta", "2"],
        "decode": ["--log-y", "4", "--n", "3", "--m", "3", "--log-c", "0",
                   "--log-d", "1"],
    }
    for command, flag in COUNT_FLAGS:
        argv = [*command.split(), *required.get(command, []), flag, "0"]
        assert main(argv) == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
    assert main(["verify", "polarized", "--tolerance", "nan"]) == 2
    assert main(["decode", "--log-y", "inf", "--n", "3", "--m", "3",
                 "--log-c", "0", "--log-d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    # verification failure exits 1: an unreachable bound
    assert main(["verify", "coupling", "--trials", "2000", "--alpha", "1.1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    "gadget", "reduce", "verify polarized", "verify gadget-mean", "verify expander",
    "verify field", "verify sandwich", "verify coupling"])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, anti3_file, command):
    required = {
        "gadget": ["--side", "4", "--delta", "2"],
        "reduce": ["--instance", anti3_file, "--delta", "1", "--delta-prime", "1",
                   "--block-size", "1", "--out-prefix", str(tmp_path / "out")],
    }
    assert main([*command.split(), *required.get(command, []), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: must be at least 0" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("out*"))


def test_graph_contract_exit_codes(capsys, tmp_path):
    # a graph within the contract but past the free-vertex cap: the cap
    # refuses it, and reading it made no per-vertex array
    cases = [(f"p graph {2 ** 53} 3\ne 0 1 1\ne 7 {2 ** 53 - 1} 2\ne 1 0 4\n", 3)]
    # breaches of the contract are usage errors
    cases += [(f"p graph {2 ** 53 + 1} 1\ne 0 1 1\n", 2),
              (f"p graph {2 ** 64} 1\ne 0 1 1\n", 2),
              (f"p graph 3 1\ne 0 {2 ** 63} 1\n", 2),
              (f"p graph 3 1\ne 0 1 {2 ** 53 + 1}\n", 2),
              (f"p graph 3 2\ne 0 1 {2 ** 53}\ne 1 2 1\n", 2)]
    for i, (text, code) in enumerate(cases):
        path = tmp_path / f"{i}.graph"
        path.write_text(text)
        assert main(["z", "--graph", str(path), "--beta", "1", "--gamma", "1"]) == code
        assert capsys.readouterr().out == ""


def test_verify_rate_bound_csv(capsys, tmp_path):
    out = tmp_path / "rate.csv"
    code, rep = _run(capsys, ["verify", "rate-bound", "--step", "0.05",
                              "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,rate_bound"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    side = sorted({a for a, _, _ in rows})
    assert side == sorted({b for _, b, _ in rows})
    assert side[0] == 9e-5 and side[-1] == 1.0
    assert len(rows) == len(side) ** 2
    for a, b, v in rows:
        assert v == pytest.approx(rate_bound(a, b), abs=1e-12)
    assert rep["value"] >= max(v for _, _, v in rows)


def test_verify_coupling_and_expander(capsys):
    code, rep = _run(capsys, ["verify", "coupling", "--trials", "5000",
                              "--seed", "3"])
    assert code == 0
    assert rep["pass"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "zero-domination-violations", "first-step-frequency-4-sigma",
        "chi-square-accepts"}
    code, rep = _run(capsys, ["verify", "expander", "--side", "6", "--delta",
                              "40", "--seeds", "3", "--eps", "0.34"])
    assert code == 0
    assert rep["pass"] is True
    assert [c["name"] for c in rep["checks"]] == ["worst-ratio-above-factor"]


def test_expander_refuses_its_side_cap_before_sampling(capsys, monkeypatch):
    def sample_gadget(*args, **kwargs):
        raise RuntimeError("sampled a gadget")

    monkeypatch.setattr(reduction, "sample_gadget", sample_gadget)
    assert main(["verify", "expander", "--side", "20", "--seeds", "1"]) == 4
    assert "RuntimeError: sampled a gadget" in capsys.readouterr().err
    assert main(["verify", "expander", "--side", "21", "--seeds", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: side 21 exceeds exhaustive audit cap 20\n"


def test_verify_polarized_small(capsys):
    code, rep = _run(capsys, ["verify", "polarized", "--pairs", "2"])
    assert code == 0
    assert rep["pass"] is True
    assert rep["value"] <= 1e-9


def test_verify_field_and_sandwich(capsys):
    code, rep = _run(capsys, ["verify", "field", "--pairs", "3"])
    assert code == 0 and rep["pass"] is True
    code, rep = _run(capsys, ["verify", "sandwich", "--seeds", "4"])
    assert code == 0 and rep["pass"] is True


def test_verify_field_passes_threads(capsys, monkeypatch):
    seen = []
    original = spins.log_partition

    def recording(*args, threads=1, **kwargs):
        seen.append(threads)
        return original(*args, threads=threads, **kwargs)

    monkeypatch.setattr(spins, "log_partition", recording)
    outputs = []
    for threads in (1, 2):
        seen.clear()
        assert main(["verify", "field", "--pairs", "1",
                     "--threads", str(threads)]) == 0
        assert seen and set(seen) == {threads}
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# one bound per check that a correct program cannot meet
UNMET_BOUNDS = {
    "polarized": ["--pairs", "1", "--tolerance", "-100"],
    "gadget-mean": ["--trials", "2000", "--tolerance", "-100"],
    "rate-bound": ["--step", "0.05", "--bound", "1.0"],
    "expander": ["--side", "6", "--seeds", "1", "--factor", "2"],
    "field": ["--pairs", "1", "--tolerance", "-100"],
    "sandwich": ["--seeds", "2", "--tolerance", "-100"],
    "coupling": ["--trials", "2000", "--alpha", "1.1"],
}


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_unmet_bound_exits_1(capsys, check):
    assert UNMET_BOUNDS.keys() == cli.CHECKS.keys()
    code, rep = _run(capsys, ["verify", check, *UNMET_BOUNDS[check]])
    assert code == 1
    assert rep["pass"] is False


def test_verify_gadget_mean(capsys):
    code, rep = _run(capsys, ["verify", "gadget-mean", "--trials", "5000"])
    assert code == 0 and rep["pass"] is True


def test_internal_error_exits_4(capsys, monkeypatch, edge_file):
    def broken(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli, "log_partition", broken)
    assert main(["z", "--graph", edge_file, "--beta", "1", "--gamma", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: invariant violated" in captured.err


def test_zero_sum_prints_strict_json(capsys, tmp_path):
    # beta = gamma = 0 leaves only proper 2-colourings: a triangle has none
    path = tmp_path / "triangle.g"
    write_graph(MultiGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), path)
    assert main(["z", "--graph", str(path), "--beta", "0", "--gamma", "0"]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["outputs"]["log_z"] == {"value": None, "scale": "log"}


def test_degenerate_inputs_never_exit_4(capsys, tmp_path, edge_file, anti3_file):
    # zero weights, gamma = 0, a field of 1e300, degree 1 and the smallest
    # counts: each run is a result (0 or 1, strict JSON) or a refusal (2, 3)
    zero = ["--beta", "0", "--gamma", "0"]
    out = str(tmp_path / "out")
    cases = {
        "z": [["--graph", edge_file, *zero, "--mu", "1e300"]],
        "uniqueness": [[*zero, "--mu", "1e300", "--degree", "1"],
                       ["--beta", "0", "--gamma", "0.5", "--mu", "1e300",
                        "--degree", "1"],
                       ["--beta", "0", "--gamma", "4", "--mu", "1e300",
                        "--degree", "100"]],
        "threshold": [[*zero, "--mu", "1e300"], [*zero, "--max-degree", "1"]],
        "phase-map": [["--beta-min", "0", "--beta-max", "2", "--beta-steps", "3",
                       "--gamma-min", "0", "--gamma-max", "2", "--gamma-steps",
                       "3", "--mu", "1e300", "--degree", "1", "--out",
                       out + ".csv"]],
        "reduce": [["--instance", anti3_file, "--delta", "1", "--delta-prime",
                    "1", "--block-size", "1", "--out-prefix", out]],
        "gadget": [["--side", "1", "--delta", "1"]],
        "theta-star": [["--instance", anti3_file]],
        "decode": [["--log-y", "0", "--n", "1", "--m", "1", *zero, "--delta",
                    "1", "--delta-prime", "1"],
                   ["--log-y", "0", "--n", "1", "--m", "1", "--beta", "0",
                    "--gamma", "0.5", "--delta", "1", "--delta-prime", "1"],
                   ["--log-y", "1e300", "--n", "1", "--m", "1", "--log-c", "0",
                    "--log-d", "1e-300"]],
        "translate-field": [[*zero, "--mu", "1e300", "--degree", "1"],
                            ["--beta", "0.5", "--gamma", "0", "--mu", "1e300",
                             "--degree", "1"]],
        "verify polarized": [["--pairs", "1"]],
        "verify gadget-mean": [["--trials", "1"]],
        "verify rate-bound": [["--step", "0.5"]],
        "verify expander": [["--side", "1", "--delta", "1", "--seeds", "1"]],
        "verify field": [["--pairs", "1"]],
        "verify sandwich": [["--seeds", "1"]],
        "verify coupling": [["--n", "1", "--b", "1", "--d", "1", "--trials", "1"]],
    }
    assert cases.keys() == {*cli.COMMANDS, *("verify " + c for c in cli.CHECKS)}
    for command, tails in cases.items():
        for tail in tails:
            code = main([*command.split(), *tail])
            captured = capsys.readouterr()
            assert code != 4, (command, tail, captured.err)
            if code in (0, 1):
                _strict_json(captured.out)


# each row with cheap flags, and the keys its report echoes: every flag's
# dest except the caps, thread counts, --out-prefix, rate-bound's --bound and
# decode's weights, plus the values the handler computes
ECHOED = {
    "z": ("--graph {edge} --beta 1 --gamma 1 --max-vertices 4 --threads 2",
          "beta gamma graph mu num_edges num_vertices"),
    "uniqueness": ("--beta 0.5 --gamma 0.5 --degree 4", "beta degree gamma mu"),
    "threshold": ("--beta 0.5 --gamma 0.5", "beta gamma max_degree mu"),
    "phase-map": ("--beta-min 0.2 --beta-max 0.8 --beta-steps 2 --gamma-min 0.2 "
                  "--gamma-max 0.8 --gamma-steps 2 --degree 5 --out {tmp}/p.csv",
                  "beta_max beta_min beta_steps degree gamma_max gamma_min gamma_steps "
                  "mu out region_constant"),
    "reduce": ("--instance {anti3} --delta 1 --delta-prime 1 --block-size 1 "
               "--out-prefix {tmp}/r",
               "block_size block_size_is_num_equations delta delta_prime instance seed"),
    "gadget": ("--side 2 --delta 1", "delta out seed side"),
    "theta-star": ("--instance {anti3} --max-vars 5", "instance num_equations num_vars"),
    "decode": ("--log-y 3 --n 2 --m 2 --beta 0.3 --gamma 0.6 --delta 2 --delta-prime 1",
               "case eps log_c log_d log_y m n slack"),
    "translate-field": ("--beta 0.5 --gamma 2 --mu 4 --degree 2", "beta degree gamma mu"),
    "verify polarized": ("--pairs 1 --threads 2", "cases pairs seed tolerance"),
    "verify gadget-mean": ("--trials 100", "seed tolerance trials"),
    "verify rate-bound": ("--step 0.5 --bound 2", "c min_fraction out step"),
    "verify expander": ("--side 2 --delta 1 --seeds 1", "delta eps factor seed seeds side"),
    "verify field": ("--pairs 1", "graphs pairs seed tolerance"),
    "verify sandwich": ("--seeds 1", "runs seed seeds tolerance"),
    "verify coupling": ("--trials 100", "a alpha b d n seed trials"),
}


@pytest.mark.parametrize("command", list(ECHOED))
def test_reports_echo_exactly_their_flags(capsys, tmp_path, edge_file, anti3_file,
                                          command):
    assert ECHOED.keys() == {*cli.COMMANDS, *("verify " + c for c in cli.CHECKS)}
    tail, keys = ECHOED[command]
    tail = tail.format(edge=edge_file, anti3=anti3_file, tmp=tmp_path)
    code, rep = _run(capsys, [*command.split(), *tail.split()])
    assert code in (0, 1)
    assert sorted(rep["params" if command.startswith("verify") else "inputs"]) == keys.split()


def _one_error_line(err):
    """stderr of a refusal: at most argparse's usage block, then one line."""
    *head, last = err.splitlines() or [""]
    usage = not head or (head[0].startswith("usage:")
                         and all(line.startswith(" ") for line in head[1:]))
    return bool(last) and usage and "Traceback" not in err


_TOP = 2 ** 63 - 1
_HUGE = str(10 ** 400)
_GRID = ("phase-map --beta-min 0.1 --beta-max 0.9 --beta-steps 3 --gamma-min 0.1 "
         "--gamma-max 0.9 --gamma-steps 3 --degree 4 --out {tmp}/p.csv")
_DECODE = "decode --log-y 3 --n 2 --m 2 --beta 0.3 --gamma 0.6 --delta 2 --delta-prime 1"
_REDUCE = ("reduce --instance {anti3} --delta 1 --delta-prime 1 --block-size 1 "
           "--out-prefix {tmp}/r")


def _swap(argv, flag, value):
    words = argv.split()
    words[words.index(flag) + 1] = str(value)
    return " ".join(words)


# invocations that used to exit 0 with a wrong answer, exit 4, or run without
# end, and the exit code each now gives before any work: 2 for an integer
# flag past int64, 3 for a size past its cap
REFUSALS = [
    (f"gadget --side {_TOP} --delta 1", 3),
    (f"gadget --side {_TOP - 1} --delta 1", 3),
    (f"gadget --side {2 ** 62} --delta 1", 3),
    (f"gadget --side 4 --delta {_TOP}", 3),
    (f"verify expander --side 8 --delta {_TOP} --seeds 1", 3),
    (f"uniqueness --beta 0.5 --gamma 0.5 --degree {_HUGE}", 2),
    (f"uniqueness --beta 0.5 --gamma 0.5 --degree {10 ** 300}", 2),
    (f"uniqueness --beta 0.5 --gamma 0.5 --degree {2 ** 63}", 2),
    (f"translate-field --beta 0.5 --gamma 0.5 --degree {_HUGE}", 2),
    (_swap(_GRID, "--degree", _HUGE), 2),
    *((_swap(_DECODE, flag, _HUGE), 2) for flag in ("--n", "--m", "--delta", "--delta-prime")),
    (f"gadget --side {10 ** 300} --delta 1", 2),
    (_swap(_REDUCE, "--delta-prime", 2 ** 63), 2),
    (_swap(_REDUCE, "--block-size", _TOP), 3),
    (_swap(_REDUCE, "--delta", _TOP), 3),
    (f"verify gadget-mean --trials {_TOP}", 3),
    ("verify gadget-mean --trials 20000000", 3),
    (f"verify coupling --trials {_TOP}", 3),
    (f"verify coupling --d {_TOP}", 3),
    ("verify coupling --trials 10000000", 3),
    (_swap(_GRID, "--beta-steps", _TOP), 3),
    (_swap(_GRID, "--gamma-steps", _TOP), 3),
    (_swap(_GRID, "--beta-steps", 10 ** 8), 3),
    ("verify polarized --pairs 100000000", 3),
]


def test_huge_sizes_are_refused_before_any_work(tmp_path, anti3_file):
    # in a subprocess each, so that a missed cap fails on the timeout instead
    # of running on; six at a time, since start-up is most of each run
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twospin.__file__)))
    for start in range(0, len(REFUSALS), 6):
        runs = [(argv.format(anti3=anti3_file, tmp=tmp_path).split(), code)
                for argv, code in REFUSALS[start:start + 6]]
        procs = [subprocess.Popen([sys.executable, "-m", "twospin", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for argv, _ in runs]
        try:
            for (argv, code), proc in zip(runs, procs):
                out, err = proc.communicate(timeout=10)
                assert (proc.returncode, out) == (code, ""), (argv, err)
                assert len(err.splitlines()) == 1, (argv, err)
        finally:
            for proc in procs:
                proc.kill()
                proc.communicate()
    assert [path.name for path in tmp_path.iterdir()] == ["anti3.e2"]


def _fuzz_values(options, tmp):
    """The values drawn for a flag, by its spec.  Never 2**63 - 1: a count
    that size is admitted, and runs on."""
    if "choices" in options:
        return ["beta-above-half", "bogus"]
    if "type" not in options:
        return [str(tmp / name) for name in ("empty", "dir", "missing", "café")]
    if options["type"] is float:
        return ["nan", "inf", "-0.0", "1e-320", "1e308"]
    return ["-1", "0", "1", "2", str(2 ** 63), _HUGE]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_flags_keep_the_exit_contract(fuzz_dir, data):
    # each draw is a row's cheap flags with one flag replaced (or added):
    # a result prints strict JSON, a refusal one error line and no traceback
    (fuzz_dir / "dir").mkdir(exist_ok=True)
    (fuzz_dir / "empty").write_text("")
    (fuzz_dir / "café").write_bytes("# café\np graph 2 1\ne 0 1 1\n".encode())
    (fuzz_dir / "missing").unlink(missing_ok=True)
    edge = fuzz_dir / "edge.g"
    write_graph(single_edge(), edge)
    anti3 = fuzz_dir / "anti3.e2"
    anti3.write_text("p e2lin2 3 3\n1 2 1\n2 3 1\n3 1 1\n")
    command = data.draw(st.sampled_from(sorted(ECHOED)))
    *prefix, name = command.split()
    (flag, *_), options = data.draw(st.sampled_from(
        (cli.CHECKS if prefix else cli.COMMANDS)[name][2]))
    value = data.draw(st.sampled_from(_fuzz_values(options, fuzz_dir)))
    words = [*command.split(), *ECHOED[command][0].format(
        edge=edge, anti3=anti3, tmp=fuzz_dir).split()]
    if flag in words:
        words[words.index(flag) + 1] = value
    else:
        words += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(words)
    assert code in (0, 1, 2, 3), (words, err.getvalue())
    if code in (0, 1):
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == "" and _one_error_line(err.getvalue()), (words, err.getvalue())


def test_non_ascii_input_files_exit_2(capsys, tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_bytes(b"# caf\xc3\xa9\np graph 2 1\ne 0 1 1\n")
    inst = tmp_path / "i.e2"
    inst.write_bytes(b"p e2lin2 2 1\n1 2 1 \x80\n")
    for argv in (["z", "--graph", str(graph), "--beta", "1", "--gamma", "1"],
                 ["theta-star", "--instance", str(inst)],
                 ["reduce", "--instance", str(inst), "--delta", "1", "--delta-prime",
                  "1", "--block-size", "1", "--out-prefix", str(tmp_path / "r")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-ASCII" in captured.err
    assert not (tmp_path / "r.graph").exists()


def test_z_stdout_does_not_depend_on_threads(capsys, tmp_path):
    path = tmp_path / "circulant.g"
    write_graph(MultiGraph.from_edges(
        18, [(i, (i + d) % 18) for i in range(18) for d in (1, 5)]), path)
    outputs = []
    for threads in ("1", "2"):
        assert main(["z", "--graph", str(path), "--beta", "0.6", "--gamma", "1.3",
                     "--mu", "0.8", "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "threads" not in outputs[0]


def test_reports_are_deterministic(capsys):
    argv = ["verify", "coupling", "--trials", "3000", "--seed", "11"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    argv = ["uniqueness", "--beta", "0.3", "--gamma", "0.9", "--mu", "2.5",
            "--degree", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_import_leaves_scipy_out():
    # scipy.stats alone used to cost about 1 s of every command's start-up
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twospin.__file__)))
    for module in ("twospin", "twospin.cli"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _imported_modules(argv, env, cwd):
    """The modules a fresh `python -m twospin ARGV` imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "twospin", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_light_commands_import_only_what_they_run(tmp_path, edge_file, anti3_file):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twospin.__file__)))
    heavy = {"twospin.analysis", "twospin.reduction", "numpy.random",
             "concurrent.futures"}
    runs = {
        ("uniqueness", "--beta", "0.5", "--gamma", "0.5", "--degree", "4"): set(),
        ("theta-star", "--instance", anti3_file): {"twospin.uniqueness"},
        ("z", "--graph", edge_file, "--beta", "1", "--gamma", "1"):
            {"twospin.uniqueness", "twospin.e2lin2"},
    }
    for argv, also_absent in runs.items():
        modules = _imported_modules(argv, env, tmp_path)
        assert "twospin.spins" in modules  # the parse really was recorded
        assert not modules & (heavy | also_absent), argv
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twospin; "
         "print(sorted(m for m in sys.modules if m.startswith('twospin')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "['twospin']", proc.stderr


EXPORTS = """
    RegimeError ResourceLimitError UsageError BipartiteGadget MultiGraph
    graph_from_text graph_to_text read_graph write_graph FieldIdentityReport
    SpinParams field_identity_report log_config_weight log_partition
    log_partition_histogram log_profile_sum log_profile_sums partition_fraction
    remove_field CaseParams DegreeScan OutsideSquareDegrees PhaseRegion SplitCase
    UniquenessReport always_unique_bound case_split classify_phase
    criticality_roots field_window first_nonunique_degree fixed_point
    outside_square_degrees phase_grid uniqueness_check E2Lin2Instance
    best_assignment format_instance normalize occurrence_counts parse_instance
    random_instance read_instance satisfied_count write_instance BoundsConstants
    GadgetParams ReductionGraph SandwichReport StructureAudit
    audit_reduction_graph bounds_constants build_reduction_graph
    decode_satisfied_estimate log_majority_sums log_polarized_sum_brute
    log_polarized_sum_closed read_blocks sample_gadget sandwich_check
    write_blocks CouplingReport ExpanderAudit MCEstimate RateBoundScan
    coupling_sim entropy exact_rate expander_audit expected_profile_sum_log
    expected_profile_sum_mc rate_bound rate_bound_scan
""".split()


def test_package_names_resolve_to_their_definitions():
    assert len(EXPORTS) == 73
    assert sorted(twospin.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(twospin))
    for name in EXPORTS:
        value = getattr(twospin, name)
        assert value.__module__.startswith("twospin.")
        assert value is getattr(sys.modules[value.__module__], name)
    namespace = {}
    exec("from twospin import *", namespace)
    assert all(namespace[name] is getattr(twospin, name) for name in EXPORTS)
    with pytest.raises(AttributeError):
        twospin.no_such_name  # noqa: B018


def test_submodules_resolve_as_package_attributes():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(twospin.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twospin; "
         "print(sorted(m for m in sys.modules if m.startswith('twospin.'))); "
         "print(twospin.analysis.rate_bound_scan is twospin.rate_bound_scan)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_lazy_defaults_equal_their_module_constants():
    from twospin import analysis, e2lin2, uniqueness

    parse = cli.build_parser().parse_args
    args = parse(["verify", "rate-bound"])
    assert (args.c, args.min_fraction, args.bound) == (
        analysis.DEFAULT_RATE_C, analysis.DEFAULT_MINORITY, analysis.RATE_BOUND_CEILING)
    assert parse(["verify", "expander"]).factor == analysis.DEFAULT_EXPANSION_FACTOR
    assert parse(["theta-star", "--instance", "x"]).max_vars == e2lin2.BEST_ASSIGNMENT_CAP
    grid = ["--beta-min", "0", "--beta-max", "1", "--beta-steps", "2", "--gamma-min",
            "0", "--gamma-max", "1", "--gamma-steps", "2", "--degree", "3", "--out", "x"]
    assert (parse(["phase-map", *grid]).region_constant
            == uniqueness.DEFAULT_REGION_CONSTANT)
    decode = ["decode", "--log-y", "1", "--n", "1", "--m", "1"]
    assert parse(decode).case == uniqueness.SplitCase.BETA_BELOW_HALF.value


def test_decode_case_choices_are_the_split_cases(capsys):
    from twospin.uniqueness import SplitCase

    decode = ["decode", "--log-y", "1", "--n", "1", "--m", "1", "--case"]
    values = [c.value for c in SplitCase]
    for value in values:
        assert cli.build_parser().parse_args([*decode, value]).case == value
    assert main([*decode, "bogus"]) == 2
    err = capsys.readouterr().err
    assert f"(choose from {', '.join(map(repr, values))})" in err
    assert main(["decode", "--help"]) == 0
    assert "--case {" + ",".join(values) + "}" in capsys.readouterr().out
