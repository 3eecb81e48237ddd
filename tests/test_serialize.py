import json
from fractions import Fraction

import pytest

from dl_harmonics import dl_graph, serialize
from dl_harmonics.dirichlet import build_truncation, hitting_table
from dl_harmonics.dl_graph import DLParams, origin
from dl_harmonics.kernels import HarmonicFunction, KernelSpec, combine
from dl_harmonics.serialize import (
    estimate_to_json,
    frac_str,
    harmonic_from_json,
    parse_frac,
    table_to_json,
)
from dl_harmonics.tree import OMEGA, TreeEnd
from dl_harmonics.walks import estimate_f, p1_walk
from dl_harmonics.tree import ROOT


def test_frac_str_always_carries_denominator():
    assert frac_str(Fraction(2)) == "2/1"
    assert frac_str(Fraction(1, 3)) == "1/3"
    assert frac_str(Fraction(-5, 10)) == "-1/2"
    assert frac_str(Fraction(0)) == "0/1"


def test_parse_frac():
    assert parse_frac("2/1") == 2
    assert parse_frac(" 3/4 ") == Fraction(3, 4)
    assert parse_frac("7") == 7
    with pytest.raises(ValueError):
        parse_frac("three halves")


def test_parse_frac_refuses_a_huge_literal_before_building_it(monkeypatch):
    assert parse_frac("1e-1000") == Fraction(1, 10**1000)
    assert parse_frac("1" * 1000) == int("1" * 1000)
    with pytest.raises(ValueError, match="denominator 0"):
        parse_frac("1/0")

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(serialize, "Fraction", no_fraction)
    for text in ("1e-9999999", " 1E+99999999", "2.5e1_001", "-1e1001", "1" * 1001, "1/" + "3" * 1000):
        with pytest.raises(ValueError) as exc:
            parse_frac(text)
        assert text.strip() not in str(exc.value) and len(str(exc.value)) < 80


def test_harmonic_round_trip():
    p = DLParams(2, 3)
    h = combine(
        [
            (Fraction(1, 2), KernelSpec(1, TreeEnd.word({1: 1}), Fraction(1, 3), p)),
            (Fraction(3, 2), KernelSpec(2, OMEGA, Fraction(1, 3), p)),
        ],
        constant=Fraction(1, 4),
    )
    spec = {
        "q": 2,
        "r": 3,
        "alpha": "1/3",
        "constant": "1/4",
        "terms": [
            {"coeff": "1/2", "side": 1, "end": {"labels": [[1, 1]]}},
            {"coeff": "3/2", "side": 2, "end": {"omega": True}},
        ],
    }
    back, params = harmonic_from_json(json.loads(json.dumps(spec)))
    assert params == p
    assert back == h
    for v in dl_graph.ball(p, 2):
        assert back(v) == h(v)


def test_harmonic_constant_forms():
    obj = {"q": 2, "r": 2, "alpha": "1/2", "constant": "3/1"}
    h, params = harmonic_from_json(obj)
    assert h(origin(params)) == 3
    assert h == HarmonicFunction(constant=Fraction(3))


def test_harmonic_decoder_rejects_out_of_range_end_labels():
    def spec(q, r, side, labels):
        term = {"coeff": "1/1", "side": side, "end": {"labels": labels}}
        return {"q": q, "r": r, "alpha": "1/3", "terms": [term]}

    with pytest.raises(ValueError, match="label 9 at 1 outside range"):
        harmonic_from_json(spec(2, 2, 1, [[1, 9]]))
    # each end is checked against the branching of its own side
    harmonic_from_json(spec(3, 2, 1, [[1, 2]]))
    with pytest.raises(ValueError, match=r"label 2 at 1 outside range\(0, 2\)"):
        harmonic_from_json(spec(3, 2, 2, [[1, 2]]))


def test_table_json_shape():
    c = build_truncation(1, DLParams(2, 2), Fraction(1, 2), "dl")
    t = hitting_table(c)
    obj = table_to_json(t)
    assert obj["kind"] == "dl" and obj["n"] == 1
    assert obj["alpha"] == "1/2"
    assert len(obj["vertices"]) == 12 and len(obj["boundary"]) == 8
    assert len(obj["F"]) == 12 and all(len(row) == 8 for row in obj["F"])
    # every entry is an exact NUM/DEN string
    for row in obj["F"]:
        for s in row:
            num, den = s.split("/")
            int(num), int(den)
    json.dumps(obj)  # serialisable as-is

    c = build_truncation(1, DLParams(2, 2), Fraction(1, 2), "tree1")
    obj = table_to_json(hitting_table(c))
    assert obj["kind"] == "tree1"
    assert len(obj["vertices"]) == 7


def test_estimate_json_is_labelled():
    op = p1_walk(DLParams(2, 2), Fraction(1, 3))
    res = estimate_f(op, ROOT, ROOT, trials=3, horizon=2, seed=0)
    obj = estimate_to_json(res)
    assert obj["point_estimate_is_float_estimate"] is True
    assert obj["hits"] == 3 and obj["trials"] == 3
    json.dumps(obj)
