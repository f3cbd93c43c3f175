import json
import math
import os
import subprocess
import sys

import pytest

import twospin
from twospin import cli, spins
from twospin.analysis import rate_bound
from twospin.cli import main
from twospin.graphs import MultiGraph, single_edge, write_graph


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


def test_uniqueness_and_threshold(capsys):
    code, rep = _run(capsys, ["uniqueness", "--beta", "0.5", "--gamma", "0.5",
                              "--degree", "2"])
    assert code == 0
    assert rep["outputs"]["derivative_magnitude"]["value"] == pytest.approx(2 / 3)
    code, rep = _run(capsys, ["threshold", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 0
    assert rep["outputs"]["degree"]["value"] == 3


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
                    "--gamma", "0.5", "--delta", "1", "--delta-prime", "1"]],
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
