"""Canonical JSON encoding of compiled instances and parameter vectors.

The canonical form fixes everything a byte-level size measure needs:
keys sorted, no insignificant whitespace, vertices and edges sorted by
id, every rational rendered as a reduced ``p`` / ``p/q`` string.  The
instance size |I| used by encoding-length bounds is the byte length of
this serialization.  Parsing reports the JSON path of the first
violation.

The parser checks only the JSON shape and the rational literals.  It
builds each object with the library type that owns its rules and turns
the ``NetworkError`` it raises into a ``SchemaError`` at the field it
names: ``Vertex`` (role, activation), ``Network`` (ids, edge ends, no
cycle), the activations, ``LossSpec`` (kind, target, j), ``Sample`` (flag,
count), ``ErmInstance``/``BackpropInstance`` (one target, scored by the loss;
theta on the edges; vectors on vertices; labels fit the loss; gap or query).

A compiled instance repeats a handful of values across thousands of
entries.  Each ``parse_instance``/``parse_theta`` call therefore keeps
one table from literal text to its validated ``Fraction``: a text is
checked on its first occurrence only and every later one gets the same
object, so equal parsed literals are shared, as in compiled instances,
and comparisons between them settle by identity.  The table lives for
the call only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Mapping

from .network import (
    Edge,
    IdentityActivation,
    LossSpec,
    Network,
    NetworkError,
    PolyActivation,
    Sample,
    Theta,
    Vertex,
)
from .product_identity import RationalPoly
from .pwl import BitBoundedActivation, PwlActivation
from .rationals import format_length, format_rational, parse_rational
from .reductions import BackpropInstance, ErmInstance


class SchemaError(ValueError):
    """Schema violation; carries the JSON path of the offending element."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def canonical_bytes(doc: Any) -> bytes:
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# activations


def activation_from_doc(doc: Any, path: str, literals: dict[str, Fraction]):
    kind = _get(doc, "kind", path, str)
    if kind == "identity":
        return IdentityActivation()
    if kind == "poly":
        coeffs = _get(doc, "coeffs", path, list)
        return PolyActivation(
            RationalPoly(
                tuple(
                    _rational(c, f"{path}.coeffs[{i}]", literals)
                    for i, c in enumerate(coeffs)
                )
            )
        )
    if kind == "pwl":
        bps = _get(doc, "breakpoints", path, list)
        pieces = _get(doc, "pieces", path, list)
        parsed_pieces = []
        for i, pair in enumerate(pieces):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{path}.pieces[{i}]", "expected [slope, intercept]")
            parsed_pieces.append(
                (
                    _rational(pair[0], f"{path}.pieces[{i}][0]", literals),
                    _rational(pair[1], f"{path}.pieces[{i}][1]", literals),
                )
            )
        return _located(
            path,
            PwlActivation,
            tuple(
                _rational(b, f"{path}.breakpoints[{i}]", literals) for i, b in enumerate(bps)
            ),
            tuple(parsed_pieces),
            doc.get("kink_slope", "right"),
        )
    if kind == "bitbounded":
        clip = doc.get("clip")
        parsed_clip = None
        if clip is not None:
            if not (isinstance(clip, list) and len(clip) == 2):
                raise SchemaError(f"{path}.clip", "expected [lo, hi]")
            parsed_clip = (
                _rational(clip[0], f"{path}.clip[0]", literals),
                _rational(clip[1], f"{path}.clip[1]", literals),
            )
        return _located(
            path,
            BitBoundedActivation,
            activation_from_doc(_get(doc, "base", path, dict), f"{path}.base", literals),
            _get(doc, "bits", path, int),
            parsed_clip,
        )
    raise SchemaError(path, f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# helpers


def _located(path: str, fn: Callable, *args: Any) -> Any:
    """``fn(*args)``, a ``NetworkError`` re-raised as a ``SchemaError`` at
    ``path`` plus the error's ``where``; the file names an edge's ends u, v."""
    try:
        return fn(*args)
    except NetworkError as exc:
        where = exc.where
        if where.startswith("edges["):  # a sample's where holds vertex ids
            where = where.replace(".tail", ".u").replace(".head", ".v")
        raise SchemaError(f"{path}.{where}" if where else path, str(exc)) from None


def _get(doc: Any, key: str, path: str, expected: type) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    value = doc[key]
    if expected is int and isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "expected an integer")
    if not isinstance(value, expected):
        raise SchemaError(
            f"{path}.{key}", f"expected {expected.__name__}, got {type(value).__name__}"
        )
    return value


def _rational(value: Any, path: str, literals: dict[str, Fraction]) -> Fraction:
    """The value of a literal; ``literals`` holds the call's valid texts so far.

    A file holds only canonical literals, ``format_rational`` of their
    value, so that |I| is the length of the file's own bytes."""
    if not isinstance(value, str):
        raise SchemaError(path, "rationals are encoded as strings")
    q = literals.get(value)
    if q is None:
        try:
            q = parse_rational(value)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
        if format_rational(q) != value:
            raise SchemaError(path, f"rational literal not canonical: {value!r}")
        literals[value] = q
    return q


def _sparse_vector(doc: Any, path: str, literals: dict[str, Fraction]) -> dict[str, Fraction]:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object mapping vertex ids to rationals")
    out = {}
    for vid in sorted(doc):
        text = doc[vid]
        # a text parsed before needs no path string
        q = literals.get(text) if isinstance(text, str) else None
        out[vid] = q if q is not None else _rational(text, f"{path}.{vid}", literals)
    return out


# ---------------------------------------------------------------------------
# theta


def theta_to_doc(theta: Theta) -> dict:
    return {
        eid: {"w": format_rational(w), "b": format_rational(b)}
        for eid, (w, b) in theta.params.items()
    }


def theta_from_doc(doc: Any, path: str, literals: dict[str, Fraction]) -> Theta:
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object keyed by edge id")
    params = {}
    for eid in sorted(doc):
        entry = doc[eid]
        where = f"{path}.{eid}"
        params[eid] = (
            _rational(_get(entry, "w", where, str), f"{where}.w", literals),
            _rational(_get(entry, "b", where, str), f"{where}.b", literals),
        )
    return Theta(params)


def serialize_theta(theta: Theta) -> bytes:
    return canonical_bytes(theta_to_doc(theta))


def theta_size(theta: Theta) -> int:
    """|enc(theta)|: the byte length of ``serialize_theta(theta)``, counted
    without rendering a rational.  The skeleton holds every edge id, JSON
    escaped exactly as in the file; the rationals add their text lengths."""
    skeleton = canonical_bytes({eid: {"w": "", "b": ""} for eid in theta.params})
    return len(skeleton) + sum(
        format_length(w) + format_length(b) for w, b in theta.params.values()
    )


def parse_theta(data: bytes | str) -> Theta:
    return theta_from_doc(_load(data), "theta", {})


# ---------------------------------------------------------------------------
# instances


def instance_to_doc(inst: ErmInstance | BackpropInstance) -> dict:
    doc: dict[str, Any] = {
        "kind": "backprop" if isinstance(inst, BackpropInstance) else "erm",
        "vertices": [
            {
                "id": v.id,
                "role": v.role,
                "activation": None if v.activation is None else v.activation.to_doc(),
            }
            for v in inst.network.vertices
        ],
        "edges": [
            {"id": e.id, "u": e.tail, "v": e.head} for e in inst.network.edges
        ],
        "theta": theta_to_doc(inst.theta_star),
        "dataset": [_sample_to_doc(s) for s in inst.dataset],
        "loss": _loss_to_doc(inst.loss),
        "provenance": inst.provenance,
    }
    if isinstance(inst, BackpropInstance):
        doc["variant"] = inst.variant
        doc["edge_star"] = inst.edge_star
        if inst.promise is not None:
            doc["promise"] = inst.promise
        if inst.bit_index is not None:
            doc["bit_index"] = inst.bit_index
    else:
        doc["gap"] = list(inst.gap)
    return doc


def _sample_to_doc(s: Sample) -> dict:
    doc: dict[str, Any] = {
        "x": {vid: format_rational(val) for vid, val in s.x.items()},
        "flag": s.flag,
        "count": s.count,
    }
    if isinstance(s.label, Mapping):
        doc["y"] = {vid: format_rational(val) for vid, val in s.label.items()}
    else:
        doc["y"] = format_rational(s.label)
    if s.note:
        doc["note"] = s.note
    return doc


def _loss_to_doc(loss: LossSpec) -> dict:
    doc: dict[str, Any] = {"kind": loss.kind}
    if loss.target is not None:
        doc["target"] = loss.target
    if loss.bit_index is not None:
        doc["j"] = loss.bit_index
    return doc


def doc_to_instance(doc: Any) -> ErmInstance | BackpropInstance:
    kind = _get(doc, "kind", "$", str)
    if kind not in ("erm", "backprop"):
        raise SchemaError("$.kind", f"unknown instance kind {kind!r}")

    literals: dict[str, Fraction] = {}
    vertices = []
    for i, vdoc in enumerate(_get(doc, "vertices", "$", list)):
        path = f"$.vertices[{i}]"
        vid = _get(vdoc, "id", path, str)
        act_doc = vdoc.get("activation")
        act = None if act_doc is None else activation_from_doc(
            act_doc, f"{path}.activation", literals
        )
        vertices.append(_located(path, Vertex, vid, vdoc.get("role"), act))

    edges = []
    for i, edoc in enumerate(_get(doc, "edges", "$", list)):
        path = f"$.edges[{i}]"
        edges.append(Edge(*(_get(edoc, key, path, str) for key in ("id", "u", "v"))))

    net = _located("$", Network, vertices, edges)
    theta = theta_from_doc(_get(doc, "theta", "$", dict), "$.theta", literals)
    loss_doc = _get(doc, "loss", "$", dict)
    loss = _located("$.loss", LossSpec, *(loss_doc.get(k) for k in ("kind", "target", "j")))

    samples = []
    for i, sdoc in enumerate(_get(doc, "dataset", "$", list)):
        path = f"$.dataset[{i}]"
        x = _sparse_vector(_get(sdoc, "x", path, dict), f"{path}.x", literals)
        ydoc = sdoc.get("y")
        label: Fraction | dict[str, Fraction]
        if isinstance(ydoc, dict):
            label = _sparse_vector(ydoc, f"{path}.y", literals)
        elif isinstance(ydoc, str):
            label = _rational(ydoc, f"{path}.y", literals)
        else:
            raise SchemaError(f"{path}.y", "label must be a rational or a sparse vector")
        flag, count = (_get(sdoc, key, path, int) for key in ("flag", "count"))
        samples.append(_located(path, Sample, x, label, flag, count, sdoc.get("note", "")))

    provenance = doc.get("provenance", {})
    if kind == "erm":
        gap = tuple(_get(doc, "gap", "$", list))
        return _located("$", ErmInstance, net, theta, tuple(samples), loss, gap, provenance)

    edge_star = _get(doc, "edge_star", "$", str)
    variant = _get(doc, "variant", "$", str)
    return _located(
        "$", BackpropInstance, net, theta, tuple(samples), loss, variant, edge_star,
        doc.get("promise"), doc.get("bit_index"), provenance,
    )


def serialize_instance(inst: ErmInstance | BackpropInstance) -> bytes:
    return canonical_bytes(instance_to_doc(inst))


def parse_instance(data: bytes | str) -> ErmInstance | BackpropInstance:
    return doc_to_instance(_load(data))


def instance_size(inst: ErmInstance | BackpropInstance) -> int:
    """|I|: the byte length of the canonical serialization.  An instance is
    not changed after it is built, except its provenance, a mutable dict: the
    length of the rest is counted on the first call and kept on the instance
    as an ``int``, and the provenance's is added on every call.  Any other
    object, whose fields may have been swapped, is counted whole."""
    if not isinstance(inst, (ErmInstance, BackpropInstance)):
        return len(serialize_instance(inst))
    kept = vars(inst)
    if "_size_sans_provenance" not in kept:
        doc = instance_to_doc(inst)
        doc["provenance"] = None
        kept["_size_sans_provenance"] = len(canonical_bytes(doc)) - len(b"null")
    return kept["_size_sans_provenance"] + len(canonical_bytes(inst.provenance))


def _load(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
