import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dl_harmonics import cli, lamplighter
from dl_harmonics.cli import main

ROOT_JSON = '{"level": 0, "labels": []}'
LEVEL2_JSON = '{"level": 2, "labels": []}'
END_JSON = '{"labels": [[1, 1]]}'
KERNEL_SPEC = json.dumps(
    {
        "q": 2,
        "r": 2,
        "alpha": "1/3",
        "constant": "0/1",
        "terms": [{"coeff": "1/1", "side": 1, "end": {"labels": [[1, 1]]}}],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_eval(capsys):
    code, out, _ = run(capsys, "kernel-eval", "--end", END_JSON, "--at", ROOT_JSON)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "1/1"
    code, out, _ = run(
        capsys,
        "kernel-eval",
        "--end",
        END_JSON,
        "--at",
        '{"level": 1, "labels": [[1, 1]]}',
    )
    assert code == 0
    assert json.loads(out)["value"] == "2/1"


def test_kernel_eval_reads_files(tmp_path, capsys):
    end = tmp_path / "end.json"
    end.write_text(END_JSON)
    code, out, _ = run(
        capsys, "kernel-eval", "--end", f"@{end}", "--at", str_path(tmp_path, ROOT_JSON)
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/1"


def str_path(tmp_path, content):
    p = tmp_path / "vertex.json"
    p.write_text(content)
    return str(p)


def test_harmonic_check_passes(capsys):
    code, out, _ = run(capsys, "harmonic-check", "--spec", KERNEL_SPEC, "--samples", "40")
    assert code == 0
    obj = json.loads(out)
    assert obj["checked"] == 40 and obj["failures"] == 0
    assert obj["alpha"] == "1/3"


def test_harmonic_check_detects_mismatch(capsys):
    # force the operator to a different walk parameter than the function
    code, out, _ = run(
        capsys,
        "harmonic-check",
        "--spec",
        KERNEL_SPEC,
        "--alpha",
        "1/2",
        "--samples",
        "40",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["failures"] > 0
    assert "first_counterexample" in obj and "applied" in obj


def test_dirichlet_solve(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(
        capsys,
        "dirichlet-solve",
        "--alpha",
        "1/3",
        "--n",
        "1",
        "--check-product",
        "--out",
        str(out_file),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 12 and obj["boundary_size"] == 8
    assert obj["product_checked"] == 96 and obj["product_discrepancies"] == 0
    table = json.loads(out_file.read_text())
    assert len(table["F"]) == 12 and table["alpha"] == "1/3"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--spec", KERNEL_SPEC, "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["reconstructed_exactly"] is True
    assert obj["n"] == 2 and obj["alpha"] == "1/3"
    assert len(obj["h1"]) == 31 and len(obj["h2"]) == 31  # distinct tree-1/2 vertices


def test_decompose_refuses_an_alpha_other_than_the_spec_s(capsys):
    for alpha in ("1/2", "3/2"):
        code, out, err = run(capsys, "decompose", "--spec", KERNEL_SPEC, "--n", "1", f"--alpha={alpha}")
        assert code == 2 and out == ""
        assert f"--alpha {alpha} differs from the spec's alpha 1/3" in err
    # the spec's own alpha, in any spelling, is accepted
    want = run(capsys, "decompose", "--spec", KERNEL_SPEC, "--n", "1")
    assert run(capsys, "decompose", "--spec", KERNEL_SPEC, "--n", "1", "--alpha", "2/6") == want
    assert want[0] == 0


def test_simulate_deterministic(capsys):
    args = ("simulate", "--steps", "25", "--seed", "9")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 26  # start + 25 steps
    first = json.loads(lines[0])
    assert first == {"x1": {"labels": [], "level": 0}, "x2": {"labels": [], "level": 0}}
    code, out3, _ = run(capsys, "simulate", "--steps", "25", "--seed", "10")
    assert out3 != out1


def test_simulate_tree_operator(capsys):
    code, out, _ = run(capsys, "simulate", "--operator", "p1", "--steps", "5", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0]) == {"labels": [], "level": 0}
    for ln in lines:
        obj = json.loads(ln)
        assert set(obj) == {"level", "labels"}


def test_estimate_f(capsys):
    code, out, _ = run(
        capsys,
        "estimate-f",
        "--alpha",
        "1/3",
        "--to",
        '{"level": -1, "labels": []}',
        "--trials",
        "200",
        "--horizon",
        "100",
        "--seed",
        "4",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["point_estimate_is_float_estimate"] is True
    assert obj["trials"] == 200
    assert obj["hits"] + obj["escaped_runs"] + obj["truncated_runs"] == 200
    # downward drift hits the predecessor almost surely
    assert obj["point_estimate"] > 0.95


def test_estimate_f_refuses_work_past_the_cap(capsys):
    code, out, err = run(
        capsys, "estimate-f", "--to", ROOT_JSON, "--trials", "100000", "--horizon", "1000"
    )
    assert code == 2 and out == ""
    assert "estimate-f needs up to 100000000 steps" in err


def test_cayley_check(capsys):
    code, out, _ = run(
        capsys, "cayley-check", "--q", "2", "--position-range", "1", "--support", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["elements"] == 24
    assert obj["bijective"] is True
    assert obj["walk_switch_matches_dl"] is True
    assert obj["switch_walk_switch_matches_dls"] is True


def test_cayley_check_refuses_past_its_work_cap_before_enumerating(capsys, monkeypatch):
    def unreachable(a):
        raise RuntimeError("cayley-check enumerated a window it should refuse")

    monkeypatch.setattr(lamplighter, "encode", unreachable)
    monkeypatch.setattr(lamplighter, "multiply", unreachable)
    code, out, err = run(capsys, "cayley-check", "--support", "1000000000")
    assert (code, out) == (2, "")
    assert "needs at least 68157440 group products" in err and "cap 1000000" in err
    # just past the cap: 2**15 elements, 3 positions, 1 + 4 + 8 products each
    code, _, err = run(capsys, "cayley-check", "--support", "7", "--position-range", "1")
    assert code == 2 and "needs at least 1277952 group products" in err
    code, _, err = run(capsys, "cayley-check", "--q", "1000000000")
    assert code == 2 and "group products" in err
    # the windows the tests and the benchmark check stay far below the cap
    assert 3**3 * 3 * 25 * 100 < lamplighter._MAX_CAYLEY_PRODUCTS


def test_defect(capsys):
    code, out, _ = run(
        capsys,
        "defect",
        "--element",
        '{"k": 0, "eta": [[0, 1]]}',
        "--boundary",
        '{"side": "+", "labels": []}',
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["defect_plus"] == -1
    assert obj["defect_oplus"] == 0
    assert obj["kernel_walk_switch"] == "1/2"
    assert obj["kernel_switch_walk_switch"] == "1/1"
    code, out, _ = run(
        capsys,
        "defect",
        "--element",
        '{"k": 0, "eta": [[1, 1]]}',
        "--boundary",
        '{"side": "-", "labels": []}',
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["defect_minus"] == -1
    assert obj["kernel_walk_switch"] == "1/2"


def test_graph_export(tmp_path, capsys):
    code, out, _ = run(capsys, "graph-export", "--radius", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert out.count("--") == 4
    out_file = tmp_path / "ball.json"
    code, _, _ = run(
        capsys,
        "graph-export",
        "--radius",
        "1",
        "--format",
        "json",
        "--out",
        str(out_file),
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert len(obj["vertices"]) == 5 and len(obj["edges"]) == 4
    assert out_file.read_text() == json.dumps(obj, sort_keys=True)  # no trailing newline


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_export_file_holds_the_stdout_text(tmp_path, capsys, fmt):
    # stdout JSON ends in a newline, the JSON file does not; DOT ends in one in both
    argv = ("graph-export", "--q", "2", "--r", "3", "--radius", "2", "--variant", "dls", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("}\n")
    out_file = tmp_path / f"ball.{fmt}"
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == (out if fmt == "dot" else out[:-1])


def test_dirichlet_solve_reports_a_product_discrepancy(monkeypatch, capsys):
    from dl_harmonics import dirichlet

    def one_wrong_entry(chain):
        table = real(chain)
        nums = table.nums.copy()
        nums[0, 0] += 1
        return dirichlet.HittingTable._from_columns(chain, nums, table.dens)

    real = dirichlet.hitting_table
    monkeypatch.setattr(dirichlet, "hitting_table", one_wrong_entry)
    code, out, _ = run(capsys, "dirichlet-solve", "--alpha", "1/3", "--n", "1", "--check-product")
    obj = json.loads(out)
    assert code == 1 and obj["product_discrepancies"] == 1 and obj["product_checked"] == 12 * 8


def test_config_without_a_value_or_a_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "r": 3, "n": 1}))
    for argv in (["dirichlet-solve", "--config"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_config_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "r": 3, "alpha": "1/3", "n": 1}))
    code, out, _ = run(capsys, "dirichlet-solve", "--config", str(cfg))
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 19 and obj["alpha"] == "1/3"
    # an explicit flag beats the config value
    code, out, _ = run(capsys, "dirichlet-solve", "--config", str(cfg), "--alpha", "1/2")
    assert code == 0
    assert json.loads(out)["alpha"] == "1/2"


def test_config_equals_spelling(tmp_path, capsys):
    # ``--config=FILE`` is the same option as ``--config FILE``
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "r": 3, "n": 1}))
    spaced = run(capsys, "dirichlet-solve", "--config", str(cfg))
    joined = run(capsys, "dirichlet-solve", f"--config={cfg}")
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["size"] == 19
    code, out, err = run(capsys, "dirichlet-solve", f"--config={tmp_path / 'no.json'}")
    assert code == 2 and out == "" and "cannot read config" in err


@pytest.mark.parametrize("spelling", (("--conf", "{}"), ("--con={}",)))
def test_abbreviated_config_exits_2(tmp_path, capsys, spelling):
    # argparse takes a unique prefix of --config as the option itself, but
    # only the full spellings are read as a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "r": 3, "n": 1}))
    code, out, err = run(capsys, "dirichlet-solve", *(t.format(cfg) for t in spelling))
    assert code == 2 and out == "" and "--config" in err


def test_bad_inputs_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "kernel-eval", "--end", "{not json", "--at", ROOT_JSON)
    assert code == 2 and "error" in err
    code, _, err = run(
        capsys, "kernel-eval", "--end", END_JSON, "--at", ROOT_JSON, "--alpha", "0"
    )
    assert code == 2
    code, _, err = run(capsys, "dirichlet-solve", "--config", str(tmp_path / "no.json"))
    assert code == 2 and "config" in err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    code, out, err = run(capsys, "dirichlet-solve", "--config", str(listed))
    assert code == 2 and out == "" and "cannot read config" in err
    code, _, err = run(capsys, "dirichlet-solve", "--q", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("graph-export", "--radius", "-2"),
        ("cayley-check", "--support", "-1"),
        ("cayley-check", "--position-range", "-1"),
        ("dirichlet-solve", "--n", "-1"),
        ("decompose", "--n", "-1", "--spec", KERNEL_SPEC),
        ("harmonic-check", "--samples", "-1", "--spec", KERNEL_SPEC),
        ("harmonic-check", "--radius", "-3", "--spec", KERNEL_SPEC),
        ("simulate", "--steps", "-5"),
        ("estimate-f", "--trials", "-1", "--to", ROOT_JSON),
        ("estimate-f", "--horizon", "-1", "--to", ROOT_JSON),
        ("estimate-f", "--escape-radius", "-1", "--to", ROOT_JSON),
        ("dirichlet-solve", "--n", "two"),
    ],
)
def test_negative_size_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    # reported by the subcommand's own parser, under its usage line
    assert captured.err.startswith(f"usage: dl-harmonics {argv[0]} ")
    assert f"argument {argv[1]}: expected a non-negative integer, got '{argv[2]}'" in captured.err


CONSTANT_SPEC = json.dumps({"q": 2, "r": 2, "alpha": "1/2", "constant": "3/1", "terms": []})


@pytest.mark.parametrize("alpha", ["3/2", "0", "1", "-1/3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("kernel-eval", "--end", END_JSON, "--at", ROOT_JSON),
        ("harmonic-check", "--spec", CONSTANT_SPEC, "--samples", "2"),
        ("dirichlet-solve", "--n", "1"),
        ("decompose", "--spec", CONSTANT_SPEC, "--n", "1"),  # no terms: --alpha is the rate
        ("simulate", "--steps", "2"),
        ("estimate-f", "--to", ROOT_JSON, "--trials", "2", "--horizon", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_alpha_outside_the_unit_interval_exits_2(capsys, argv, alpha):
    # ``--alpha=VALUE``, so that argparse passes "-1/3" on as a value
    code, out, err = run(capsys, *argv, f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert "alpha must lie strictly between 0 and 1" in err


@pytest.mark.parametrize("alpha", ["1e-9999999", "1e400", "1" * 2000])
def test_huge_alpha_exits_2_without_repeating_it(capsys, alpha):
    code, out, err = run(capsys, "kernel-eval", "--end", END_JSON, "--at", ROOT_JSON, "--alpha", alpha)
    assert code == 2 and out == "" and "000000" not in err and "111111" not in err


@pytest.mark.parametrize(
    "argv, estimate",
    [
        # DL(2,2): 4 moves a step, the i-th vertex of at most 1 + i entries
        (("simulate", "--steps", "5000"), "up to 50030000"),
        (("simulate", "--steps", "10000000000"), "up to 200000000060000000000"),
        (("graph-export", "--q", "100000", "--radius", "1"), "up to 60003000036"),
        # the ball past radius 26 is not counted, and only grows
        (("graph-export", "--radius", "1000000000"), "more than"),
        # each sample: 7 rows of 4 vertices, each of at most 1 + 7 entries
        (("harmonic-check", "--spec", KERNEL_SPEC, "--samples", "223215"), "up to 50000160"),
        (("harmonic-check", "--spec", KERNEL_SPEC, "--samples", "100000000", "--radius", "100000000"),
         "up to 4000000120000000800000000"),
    ],
    ids=["simulate", "simulate-huge", "graph-export-branching", "graph-export-radius",
         "harmonic-check", "harmonic-check-huge"],
)
def test_over_budget_output_exits_2_before_any_vertex(capsys, monkeypatch, argv, estimate):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.wk, "simulate", refuse)
    monkeypatch.setattr(cli.dg, "ball", refuse)
    monkeypatch.setattr(cli.dg, "random_vertex", refuse)
    code, out, err = run(capsys, *argv)
    cap = cli._MAX_BUILT_ENTRIES
    assert code == 2 and out == ""
    assert f"{argv[0]} would build vertices of {estimate}" in err and f"(cap {cap})" in err


def test_harmonic_check_budget_counts_kernel_values(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.dg, "random_vertex", refuse)
    # 48,000,000 label entries are under the cap; the 30,000,000 values of the
    # one-term spec (5 vertices a row) are not
    code, out, err = run(capsys, "harmonic-check", "--spec", KERNEL_SPEC, "--samples", "6000000", "--radius", "0")
    assert code == 2 and out == ""
    assert "up to 48000000 label entries and evaluate up to 30000000 kernel values" in err
    assert f"worth {48000000 + 30000000 * cli._ENTRIES_PER_VALUE} entries in all (cap {cli._MAX_BUILT_ENTRIES})" in err


NINES = "9" * 4000  # under the 4,300 digits int() reads; products of two are not


@pytest.mark.parametrize("argv", [
    ("simulate", "--steps", NINES),
    ("harmonic-check", "--spec", '{"q":2,"r":2,"alpha":"1/3","terms":[]}', "--samples", NINES, "--radius", NINES),
    ("estimate-f", "--to", '{"level":1,"labels":[]}', "--trials", NINES, "--horizon", NINES),
], ids=lambda argv: argv[0])
def test_a_work_estimate_past_4300_digits_exits_2_naming_the_cap(capsys, argv):
    # all three budgets are 50,000,000 (label entries, or steps of estimate-f)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cap 50000000)" in err and "-digit number of" in err
    assert "Exceeds the limit" not in err


def test_budget_estimates_of_small_outputs_stay_far_below_the_cap(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_check_built_entries", lambda command, entries, at_least=False: seen.append(entries))
    for argv in (
        ("simulate", "--q", "3", "--r", "3", "--operator", "qalpha", "--steps", "12"),
        ("graph-export", "--q", "3", "--r", "3", "--variant", "dls", "--radius", "2"),
        ("harmonic-check", "--spec", KERNEL_SPEC, "--samples", "10", "--radius", "3"),
    ):
        assert run(capsys, *argv)[0] == 0
    assert len(seen) == 3 and max(seen) < cli._MAX_BUILT_ENTRIES // 1000


def test_kernel_eval_rejects_out_of_range_label(capsys):
    code, out, err = run(
        capsys, "kernel-eval", "--q", "2", "--end", '{"omega": true}',
        "--at", '{"level": 1, "labels": [[1, 9]]}',
    )
    assert code == 2 and out == "" and "outside range(0, 2)" in err
    # the end is checked against the branching of the chosen side
    code, out, err = run(
        capsys, "kernel-eval", "--q", "3", "--r", "2", "--side", "2",
        "--end", '{"labels": [[1, 2]]}', "--at", ROOT_JSON,
    )
    assert code == 2 and out == "" and "outside range(0, 2)" in err


def test_simulate_rejects_out_of_range_start(capsys):
    start = '{"x1": {"level": 1, "labels": [[1, 5]]}, "x2": {"level": -1, "labels": []}}'
    code, out, err = run(capsys, "simulate", "--q", "2", "--r", "2", "--start", start)
    assert code == 2 and out == "" and "outside range(0, 2)" in err
    code, out, err = run(
        capsys, "simulate", "--operator", "p2", "--r", "3", "--start",
        '{"level": 2, "labels": [[2, 3]]}',
    )
    assert code == 2 and out == "" and "outside range(0, 3)" in err


BAD_END_SPEC = json.dumps(
    {
        "q": 2,
        "r": 2,
        "alpha": "1/3",
        "terms": [{"coeff": "1/1", "side": 1, "end": {"labels": [[1, 9]]}}],
    }
)


def test_harmonic_check_rejects_out_of_range_end_label(capsys):
    code, out, err = run(capsys, "harmonic-check", "--spec", BAD_END_SPEC)
    assert code == 2 and out == "" and "label 9 at 1 outside range(0, 2)" in err


def test_decompose_rejects_out_of_range_end_label(capsys):
    code, out, err = run(capsys, "decompose", "--spec", BAD_END_SPEC, "--n", "1")
    assert code == 2 and out == "" and "label 9 at 1 outside range(0, 2)" in err


def test_failed_exact_check_exits_1(monkeypatch, capsys):
    from dl_harmonics import dirichlet

    def reject(table, scaled_rows):
        raise AssertionError("exact residual of the Dirichlet solve is nonzero")

    dirichlet._certified.cache_clear()  # the certificate runs on this call
    monkeypatch.setattr(dirichlet, "_verify_table", reject)
    code, out, err = run(capsys, "dirichlet-solve", "--n", "1")
    assert code == 1
    assert json.loads(out) == {"error": "exact residual of the Dirichlet solve is nonzero"}
    assert "Traceback" not in out + err


def test_dirichlet_solve_without_out_enumerates_no_vertex(monkeypatch, capsys):
    from dl_harmonics import dirichlet

    argv = ("dirichlet-solve", "--q", "2", "--r", "3", "--n", "2", "--alpha", "1/3", "--check-product")
    want = run(capsys, *argv)

    def never(chain):
        raise RuntimeError("the vertices were enumerated")

    monkeypatch.setattr(dirichlet, "_enumerate", never)
    assert run(capsys, *argv) == want
    assert json.loads(want[1])["size"] == 211 and want[0] == 0


DEFECT_PLUS = '{"side": "+", "labels": []}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--q", "1", "--element", '{"k": 0}', "--boundary", DEFECT_PLUS),
         "branching numbers must be at least 2"),
        (("--q", "2", "--element", '{"k": 0, "eta": [[0, 5]]}', "--boundary", DEFECT_PLUS),
         "--element: label 5 at 0 outside range(0, 2)"),
        (("--q", "3", "--element", '{"k": 1, "eta": [[2, -1]]}', "--boundary", DEFECT_PLUS),
         "--element: label -1 at 2 outside range(0, 3)"),
        (("--q", "2", "--element", '{"k": 0}', "--boundary", '{"side": "-", "labels": [[3, 7]]}'),
         "--boundary: label 7 at 3 outside range(0, 2)"),
    ],
)
def test_defect_rejects_bad_q_and_labels(capsys, argv, message):
    code, out, err = run(capsys, "defect", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("defect", "--element", "[1, 2]", "--boundary", DEFECT_PLUS), "--element"),
        (("defect", "--element", '{"k": 0}', "--boundary", '{"labels": []}'), "--boundary"),
        (("kernel-eval", "--end", END_JSON, "--at", "[]"), "--at"),
        (("kernel-eval", "--end", '{"labels": [[1,', "--at", ROOT_JSON), "--end"),
        (("simulate", "--start", '{"x1": [1]}'), "--start"),
        (("estimate-f", "--to", '[{"level": 1}]'), "--to"),
        (("harmonic-check", "--spec", "[2]"), "--spec"),
        (("decompose", "--spec", '{"q": 2,'), "--spec"),
    ],
)
def test_json_of_the_wrong_shape_names_the_argument(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: ")
    assert "No such file" not in err and "Traceback" not in err


def spec_with(**fields):
    obj = json.loads(KERNEL_SPEC)
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("defect", "--q", "2", "--element", '{"k": 1.5, "eta": [[0, 1]]}', "--boundary", DEFECT_PLUS),
         "--element: k must be a JSON integer, got 1.5"),
        (("defect", "--q", "2", "--element", '{"k": "1", "eta": [[0, 1]]}', "--boundary", DEFECT_PLUS),
         "--element: k must be a JSON integer, got '1'"),
        (("defect", "--q", "2", "--element", '{"k": 1, "eta": [[0, 1.9]]}', "--boundary", DEFECT_PLUS),
         "--element: lamp must be a JSON integer, got 1.9"),
        (("defect", "--q", "2", "--element", '{"k": 1, "eta": [[true, 1]]}', "--boundary", DEFECT_PLUS),
         "--element: site must be a JSON integer, got True"),
        (("defect", "--q", "2", "--element", '{"k": 0}', "--boundary", '{"side": "-", "labels": [["2", 1]]}'),
         "--boundary: site must be a JSON integer, got '2'"),
        (("kernel-eval", "--end", '{"labels": [[1, 1.9]]}', "--at", ROOT_JSON),
         "--end: label must be a JSON integer, got 1.9"),
        (("kernel-eval", "--end", END_JSON, "--at", '{"level": 1.7}'),
         "--at: level must be a JSON integer, got 1.7"),
        (("kernel-eval", "--end", END_JSON, "--at", '{"level": 1, "labels": [[true, 1]]}'),
         "--at: label key must be a JSON integer, got True"),
        (("simulate", "--steps", "2", "--start", '{"x1": {"level": "0"}, "x2": {"level": 0}}'),
         "--start: level must be a JSON integer, got '0'"),
        (("simulate", "--steps", "2", "--start", '{"x1": {"level": 0}, "x2": {"level": 0, "labels": [[0, true]]}}'),
         "--start: label must be a JSON integer, got True"),
        (("harmonic-check", "--spec", spec_with(q=2.0)), "q must be a JSON integer, got 2.0"),
        (("decompose", "--spec", spec_with(r="2"), "--n", "1"), "r must be a JSON integer, got '2'"),
        (("harmonic-check", "--spec", spec_with(terms=[{"coeff": "1/1", "side": True, "end": {}}])),
         "side must be a JSON integer, got True"),
    ],
)
def test_a_json_number_that_is_not_an_integer_exits_2(capsys, argv, message):
    # int() would read 1.5 as 1, "1" as 1 and true as 1: values never given
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("harmonic-check", "--spec", spec_with(terms=[1])), "terms must be a list of JSON objects"),
        (("harmonic-check", "--spec", spec_with(terms={"coeff": "1/1"})), "terms must be a list of JSON objects"),
        (("decompose", "--spec", spec_with(terms=[{"coeff": "1/1", "side": 1, "end": 7}]), "--n", "1"),
         "end must be a JSON object, got int"),
        (("harmonic-check", "--spec", spec_with(terms=[{"coeff": "1/1", "side": 2, "end": [[1, 1]]}])),
         "end must be a JSON object, got list"),
    ],
)
def test_a_spec_of_the_wrong_shape_exits_2_naming_the_field(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: --spec: {message}\n"


OMEGA_WITH_LABELS = {"omega": True, "labels": [[1, 1]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        # "false" is a string, not the boolean: it used to read as ω
        (("kernel-eval", "--alpha", "1/3", "--end", '{"omega": "false"}', "--at", LEVEL2_JSON),
         "--end: omega must be a JSON boolean, got 'false'"),
        (("kernel-eval", "--end", '{"omega": 1}', "--at", ROOT_JSON), "--end: omega must be a JSON boolean, got 1"),
        # the labels used to be dropped silently
        (("kernel-eval", "--end", json.dumps(OMEGA_WITH_LABELS), "--at", ROOT_JSON),
         "--end: an end with omega true takes no labels"),
        (("harmonic-check", "--spec", spec_with(terms=[{"coeff": "1/1", "side": 1, "end": {"omega": "true"}}])),
         "--spec: omega must be a JSON boolean, got 'true'"),
        (("decompose", "--spec", spec_with(terms=[{"coeff": "1/1", "side": 1, "end": OMEGA_WITH_LABELS}]),
          "--n", "1"),
         "--spec: an end with omega true takes no labels"),
    ],
)
def test_the_omega_flag_is_a_boolean_without_labels(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_the_word_end_and_omega_read_as_before(capsys):
    # a word end at level 2 (16/1), and the boolean flag (1/1)
    for end, value in (('{"labels": []}', "16/1"), ('{"omega": false}', "16/1"), ('{"omega": true}', "1/1")):
        code, out, _ = run(capsys, "kernel-eval", "--alpha", "1/3", "--end", end, "--at", LEVEL2_JSON)
        assert code == 0 and json.loads(out)["value"] == value


@pytest.mark.parametrize("command", ["decompose", "harmonic-check"])
@pytest.mark.parametrize("spec, field", [("{}", "q"), ('{"q": 2, "r": 2}', "alpha")])
def test_a_spec_missing_a_field_names_the_flag(capsys, command, spec, field):
    code, out, err = run(capsys, command, "--spec", spec)
    assert code == 2 and out == ""
    assert err == f"error: --spec: JSON of the wrong shape (KeyError('{field}'))\n"


def test_a_library_fault_behind_spec_is_not_a_usage_error(monkeypatch):
    from dl_harmonics import cli, lamplighter

    def broken(obj):
        raise TypeError("fault inside the library")

    monkeypatch.setattr(cli, "harmonic_from_json", broken)
    with pytest.raises(TypeError, match="fault inside the library"):
        main(["harmonic-check", "--spec", KERNEL_SPEC])


LEVEL1_JSON = '{"level": 1, "labels": [[1, 1]]}'

# SHA-256 of json.dumps([exit code, stdout, stderr]) for each argv, taken
# with the parser that built all nine subcommands for every call.  They pin
# help and usage text, argparse errors and the output of valid calls.
GOLDEN = [
    (("kernel-eval", "-h"),
     "3dd6afe124d81c0dbbfc2882a2ed3317c3b4e6b965599afd15c9d90ae1924f74"),
    (("harmonic-check", "-h"),
     "7d8902fef0190475beef400a9b2639582f918d11d9a612aaba32578da53048a8"),
    (("dirichlet-solve", "-h"),
     "6710bb3f1d31e2c7b27700667be83ad7f58ea0447a7abfc3dec432168fd08491"),
    (("decompose", "-h"),
     "f84ab794d5a27da20dd183ee181ce2d1d0a14596fded9d8238bb517507b6c6a2"),
    (("simulate", "-h"),
     "2c80e2498127eae1280b690dc6bc4843fdf92a1d51204a695f4ab1e29bf41e44"),
    (("estimate-f", "-h"),
     "dc629592012e7e2e64646f52efc5f1b132a903905e6558e8e7562c487e2c4111"),
    (("cayley-check", "-h"),
     "37c1543ce50d1a49ea08d0fec53ae3d73d08fb2cfe0ecbcc756ba958fbc6615f"),
    (("defect", "-h"),
     "f89d91451565c31fb87c6c17b32d1a0baf4ade8442df0e57445107672fd2d91a"),
    (("graph-export", "-h"),
     "a5f3f775329d74ad51c75caf9f4f1708764cd1673be3e71b6b5ca4018823910c"),
    (("-h",),
     "46f0fd4406738c881cba7b5bb140fece30001c034afc3465ecb3b5628b236ef9"),
    ((),
     "abb69a03b4af4beefa43d342e2e22abb9e5e32a6c568de3b7cf6ed61f49fbec7"),
    (("frobnicate",),
     "21b98d71ebecf4e4963c5a1d131259ebd8fb2a00021fddcf2dc7f6e41c35a24d"),
    (("kernel-eval", "--end", END_JSON, "--at", ROOT_JSON, "--bogus"),
     "6374d0b2374486063ab81853a2240f9a6cd7d615b6c06ffc4afd2d2af1c18c7e"),
    (("cayley-check", "extra"),
     "759a843253c2aa95b87d5ed5fcd994c4e40be799a376ec2ebd92dd2b3658d294"),
    (("estimate-f", "--trials", "10"),
     "4b194b69d2b1b905a96b34ef1925a751fa13f11e280dc3d46d490c5aa24f7fd1"),
    (("simulate", "--operator", "nope"),
     "6958dc6ed85088bed56320698307f1cd88099033784c1220a9ce252f671a6418"),
    (("dirichlet-solve", "--q", "two"),
     "d52f4e5d74355c9f3d05e8cff176653f1ce2cf1e42fe46b8ff23691cef98896d"),
    (("graph-export", "--radius", "-2"),
     "5fdd9f009427b0c3afd4479439749906bca3f2e0c240caf1f88b9df398d3fc3c"),
    (("kernel-eval", "--end", END_JSON, "--at", LEVEL1_JSON, "--alpha", "1/3"),
     "e840dbd4ba9cfe65cc44d97c09f81c81ae7761a80973a19e47720f948618608c"),
    (("harmonic-check", "--spec", KERNEL_SPEC, "--samples", "10", "--radius", "3", "--seed", "5"),
     "3b50602cac4c2902a6b27d9541a0499a55b5d7c8f44c4755fcda2f2a08443c1e"),
    (("dirichlet-solve", "--alpha", "1/3", "--n", "1", "--check-product"),
     "f82361d35d42c8e4cd074b61096a8a470195e38838b1c3ddc2365dc1e50edc6d"),
    (("decompose", "--spec", KERNEL_SPEC, "--n", "1"),
     "b88e83ef0c2445ec396a2755bc3c020b3e103e56f112aa388182c2d95bd323cb"),
    (("simulate", "--q", "2", "--r", "3", "--steps", "6", "--seed", "3"),
     "65da72654f6967445eef1fe6fceaf9a9c8924992254584c49f7883fbb77df761"),
    (("estimate-f", "--alpha", "2/3", "--to", LEVEL1_JSON, "--trials", "50", "--horizon", "50", "--seed", "2"),
     "125e37875c31f5fadb87e9a9bece8ef6035a41b77b370bf46b918251dc7a2791"),
    (("cayley-check", "--q", "3", "--support", "1", "--position-range", "1"),
     "af1f3b7a856a8e312eef791f71c8a901eea1f48f01778dbcfe1b3f49014014ce"),
    (("defect", "--q", "3", "--element", '{"k": 1, "eta": [[-1, 2], [0, 1], [2, 1]]}', "--boundary", '{"side": "+", "labels": [[1, 2]]}'),
     "60dd3ccfedf347b0ebf6d2c692dcbd46bc02c67bbc3ef409fc19b4ad22d22937"),
    (("graph-export", "--q", "2", "--r", "3", "--radius", "1", "--format", "json"),
     "4f6d6141561f1f0d26f9e134250fd84428e5b73c56883028e9d41d5ea0973666"),
    (("simulate", "--steps", "2", "--start", ""),
     "117e2d354153518f41baa44a2aa1d0a94f4aac0597c6f4a7b18debf15f0afdf3"),
    (("estimate-f", "--from", "", "--to", LEVEL1_JSON, "--trials", "20", "--horizon", "20"),
     "1681187d0f997c6493dd7e4ec001cdb6f9381ba2ef50f3c680c20c4b43875a47"),
]
GOLDEN_CONFIG = "50d3156c9abed88e3aa00ab4b69196ae4f4370046b14e3faaa9a60dac3fd325c"


def _digest(capsys, argv) -> str:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports help and usage errors this way
        code = exc.code
    captured = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, captured.out, captured.err]).encode()).hexdigest()


pinned_argparse = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="help and usage text as CPython 3.11 formats it"
)


def test_dirichlet_solve_past_the_dense_cap_exits_2(tmp_path, capsys, monkeypatch):
    # DL(2,2) n = 6 passes the vertex cap (53,248 vertices) but its solve
    # would need 12.0 GiB; it is refused before any vertex is enumerated.
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the chain was enumerated")

    monkeypatch.setattr(cli.dct, "build_truncation", enumerate_nothing)
    out_file = tmp_path / "table.json"
    code, out, err = run(capsys, "dirichlet-solve", "--n", "6", "--out", str(out_file))
    assert code == 2 and out == ""
    assert "12.0 GiB" in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv, cap", [
    (("dirichlet-solve", "--n", "100000"), "(cap 2 GiB)"),
    (("decompose", "--spec", KERNEL_SPEC, "--n", "100000"), "(cap 500000)"),
    (("dirichlet-solve", "--n", "1000000000"), "(cap 2 GiB)"),
    (("decompose", "--spec", KERNEL_SPEC, "--n", "1000000000"), "(cap 500000)"),
], ids=["dirichlet-solve", "decompose", "dirichlet-solve-1e9", "decompose-1e9"])
def test_a_huge_stage_exits_2_at_once_naming_the_cap(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and cap in err and "-digit number of" in err
    assert "Exceeds the limit" not in err


def test_cli_import_loads_no_heavy_dependency():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    probe = (
        "import sys, dl_harmonics.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy', 'networkx'}))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pinned_argparse
@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) or "<none>" for a, _ in GOLDEN])
def test_golden_output(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(capsys, argv) == digest


@pinned_argparse
def test_golden_config_output(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "r": 3, "alpha": "1/3", "n": 1, "check_product": True}))
    assert _digest(capsys, ("dirichlet-solve", "--config", str(cfg))) == GOLDEN_CONFIG


# SHA-256 of dirichlet-solve stdout (its --out path replaced by "<out>") and
# of the --out file, taken when hitting tables were still stored as rows of
# Fractions.  They pin the exact tables whatever their storage.
DIRICHLET_SHA256 = [
    (("--q", "2", "--r", "2", "--n", "2", "--alpha", "1/3", "--check-product"),
     "8a8f6a0e716dfa93a1d86e1ccbf2f22dbcd64455dcbe1314f6e0ac0cef9975e2",
     "b65937bf06901ce308ab6e6e5bab4d95492daf13a473a7ed9541ba8d18239608"),
    (("--q", "3", "--r", "3", "--n", "1", "--alpha", "2/3"),
     "6210c6698f88b2e3ddfa57a3d9adc06f5f4701224de5046e6d2a7051ce3e7b16",
     "390308f3a365e0394e6fc32b59ddfe636a90a18f6b42949e82e82f3006e426ea"),
    (("--q", "2", "--r", "3", "--n", "2", "--alpha", "3/5"),
     "e2326cdcca2aef42722615d1f9bb01a2d95cbeb5f81249ab393976dd555ee123",
     "3387bbd5987a4ba9e03ab62d53f146bd4d431843ab1963eb14acf53511ad8d57"),
]


@pytest.mark.parametrize("argv, out_digest, file_digest", DIRICHLET_SHA256,
                         ids=[" ".join(a[1:6:2]) for a, _, _ in DIRICHLET_SHA256])
def test_dirichlet_solve_output_is_unchanged(tmp_path, capsys, argv, out_digest, file_digest):
    path = str(tmp_path / "table.json")
    code, out, _ = run(capsys, "dirichlet-solve", *argv, "--out", path)
    assert code == 0
    assert hashlib.sha256(out.replace(path, "<out>").encode()).hexdigest() == out_digest
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == file_digest
