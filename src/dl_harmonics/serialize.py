"""JSON forms used by the command-line tools.

Every exact number travels as a ``"NUM/DEN"`` string; floats appear only in
Monte-Carlo estimates, labelled as such.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from fractions import Fraction

from .dl_graph import DLParams, vertex_to_json_pair
from .dirichlet import HittingTable
from .kernels import HarmonicFunction, KernelSpec, combine
from .tree import _digits, _json_int, end_from_json, vertex_to_json
from .walks import EstimateResult

__all__ = [
    "frac_str",
    "parse_frac",
    "harmonic_from_json",
    "table_to_json",
    "estimate_to_json",
]


def frac_str(x: Fraction) -> str:
    """``x`` as ``"NUM/DEN"``; a part too long for Python to print is a
    ``ValueError`` that gives its digit count and the limit."""
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # str refuses an int of more than 4,300 digits by default
        raise ValueError(f"the value has a {_digits(max(abs(x.numerator), x.denominator))}-digit part, past "
                         f"the {sys.get_int_max_str_digits():,}-digit limit on printing an integer") from None


# Largest literal ``parse_frac`` builds: its digits (the exponent's
# included) and the size of a decimal exponent.  ``Fraction("1e-9999999")``
# would first build ``10**9999999``; at the bound a value has at most a few
# thousand digits.
_MAX_FRAC_DIGITS = 1000
_MAX_FRAC_EXPONENT = 1000


def parse_frac(s) -> Fraction:
    """The ``Fraction`` of a literal such as ``"2/3"``, ``"0.25"`` or
    ``"1e-3"``.  A literal with more than ``_MAX_FRAC_DIGITS`` digits or an
    exponent beyond ``_MAX_FRAC_EXPONENT`` is refused before any number is
    built, with a message that does not repeat it.  Every malformed literal,
    a zero denominator included, is a ``ValueError``."""
    text = str(s).strip()
    digits = sum(map(str.isdigit, text))
    if digits > _MAX_FRAC_DIGITS:
        raise ValueError(f"a fraction literal may have at most {_MAX_FRAC_DIGITS} digits, got one with {digits}")
    _, e, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "")
    if e and exponent.isdecimal() and int(exponent) > _MAX_FRAC_EXPONENT:
        raise ValueError(f"a fraction literal's exponent must lie within +-{_MAX_FRAC_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("a fraction literal must not have denominator 0") from None


def harmonic_from_json(obj: dict) -> tuple[HarmonicFunction, DLParams]:
    """The function and graph of a spec.  A ``terms`` that is not a list of
    JSON objects is a ``ValueError`` naming the field, as is every other
    malformed value (``end_from_json`` refuses an ``end`` of the wrong shape)."""
    params = DLParams(_json_int(obj["q"], "q"), _json_int(obj["r"], "r"))
    alpha = parse_frac(obj["alpha"])
    raw = obj.get("terms", [])
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise ValueError("terms must be a list of JSON objects")
    terms = []
    for t in raw:
        spec = KernelSpec(_json_int(t["side"], "side"), end_from_json(t["end"]), alpha, params)
        terms.append((parse_frac(t["coeff"]), spec))
    constant = parse_frac(obj.get("constant", "0/1"))
    if not terms:
        # A constant alone: represent with no terms but remember the graph.
        return HarmonicFunction((), constant, False), params
    return combine(terms, constant), params


def table_to_json(table: HittingTable) -> dict:
    chain = table.chain
    enc = vertex_to_json_pair if chain.kind == "dl" else vertex_to_json
    columns = map(_column_strings, table.nums.T.tolist(), table.dens)
    return {
        "kind": chain.kind,
        "n": chain.n,
        "q": chain.params.q,
        "r": chain.params.r,
        "alpha": frac_str(chain.alpha),
        "vertices": [enc(v) for v in chain.vertices],
        "boundary": [enc(v) for v in chain.boundary],
        "F": [list(row) for row in zip(*columns)],
    }


def _column_strings(column: list, den: int) -> list:
    """The entries ``x / den`` of one table column as strings, each distinct
    value formatted once: a table holds few distinct values."""
    text = {x: frac_str(Fraction(x, den)) for x in set(column)}
    return [text[x] for x in column]


def estimate_to_json(res: EstimateResult) -> dict:
    out = asdict(res)
    out["point_estimate_is_float_estimate"] = True
    return out
