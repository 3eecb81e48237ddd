import json

import pytest

from dl_harmonics.cli import main

ROOT_JSON = '{"level": 0, "labels": []}'
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


def test_bad_inputs_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "kernel-eval", "--end", "{not json", "--at", ROOT_JSON)
    assert code == 2 and "error" in err
    code, _, err = run(
        capsys, "kernel-eval", "--end", END_JSON, "--at", ROOT_JSON, "--alpha", "0"
    )
    assert code == 2
    code, _, err = run(capsys, "dirichlet-solve", "--config", str(tmp_path / "no.json"))
    assert code == 2 and "config" in err
    code, _, err = run(capsys, "dirichlet-solve", "--q", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("graph-export", "--radius", "-2"),
        ("cayley-check", "--support", "-1"),
        ("cayley-check", "--position-range", "-1"),
    ],
)
def test_negative_size_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {argv[1]}: expected a non-negative integer" in captured.err


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

    monkeypatch.setattr(dirichlet, "_verify_table", reject)
    code, out, err = run(capsys, "dirichlet-solve", "--n", "1")
    assert code == 1
    assert json.loads(out) == {"error": "exact residual of the Dirichlet solve is nonzero"}
    assert "Traceback" not in out + err
