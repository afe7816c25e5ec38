"""JSON input/output for the command line and external tooling.

Exact rationals travel as "p/q" strings (plain integers stay integers);
floats use their shortest round-trip decimal form, which is what repr gives.
Every emitted document carries a "schema": "slm/1" tag.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from . import ratlin
from .arrangement import Arrangement
from .errors import ValidationError

SCHEMA = "slm/1"


def rational_to_json(value: Fraction) -> str:
    """Rational-typed fields are always "p/q" strings (integers as "p"),
    written in full: Python's limit on the digits of an integer string
    bounds the input, not the exact answers computed from it."""
    value = ratlin.as_fraction(value)
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def rationals_to_json(values):
    return [rational_to_json(v) for v in values]


def matrix_to_json(rows):
    return [rationals_to_json(row) for row in rows]


def parse_rational(value) -> Fraction:
    try:
        return ratlin.as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ValidationError(f"not a rational number: {value!r}") from err


def parse_vector(data, name: str):
    if not isinstance(data, list) or not data:
        raise ValidationError(f"field {name!r} must be a nonempty array")
    return tuple(parse_rational(v) for v in data)


def parse_matrix(data, name: str):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValidationError(f"field {name!r} must be an array of arrays")
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ValidationError(f"rows of {name!r} have inconsistent lengths")
    return tuple(tuple(parse_rational(v) for v in row) for row in data)


def check_schema(doc: dict):
    tag = doc.get("schema")
    if tag is not None and tag != SCHEMA:
        raise ValidationError(f"unsupported schema {tag!r} (expected {SCHEMA!r})")


def arrangement_from_json(doc: dict) -> Arrangement:
    check_schema(doc)
    if "A" not in doc:
        raise ValidationError("input needs a coefficient matrix under key 'A'")
    rows = parse_matrix(doc["A"], "A")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(rows) or not all(isinstance(v, str) for v in labels):
            raise ValidationError("labels must be one string per row of A")
        labels = tuple(labels)
    return Arrangement(A=rows, labels=labels)


def arrangement_to_json(arr: Arrangement) -> dict:
    doc = {"schema": SCHEMA, "A": matrix_to_json(arr.A)}
    if arr.labels is not None:
        doc["labels"] = list(arr.labels)
    return doc


def model_from_json(doc: dict):
    from .model import make_model

    return make_model(arrangement_from_json(doc))


def dpp_from_json(doc: dict):
    from .dpp import DPPModel

    check_schema(doc)
    for key in ("Theta_fixed", "k", "n"):
        if key not in doc:
            raise ValidationError(f"DPP input needs key {key!r}")
    for key in ("k", "n"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValidationError(f"DPP key {key!r} must be a JSON integer, got {doc[key]!r}")
    theta = parse_matrix(doc["Theta_fixed"], "Theta_fixed")
    return DPPModel(Theta_fixed=theta, k=doc["k"], n=doc["n"])


def critical_point_to_json(point) -> dict:
    return {
        "region": str(point.region),
        "x": [float(v) for v in point.x],
        "y": [float(v) for v in point.y],
        "p": [float(v) for v in point.p],
        "logL": float(point.logL),
        "grad_norm": float(point.grad_norm),
        "iterations": int(point.iterations),
    }


def polytope_to_json(poly) -> dict:
    return {
        "vertices": [rationals_to_json(v) for v in poly.V_rep],
        "facets": [
            {"normal": rationals_to_json(normal), "offset": rational_to_json(offset)}
            for normal, offset in poly.H_rep
        ],
        "f_vector": list(poly.f_vector),
        "dim": poly.dim,
        "ambient_dim": poly.ambient_dim,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
