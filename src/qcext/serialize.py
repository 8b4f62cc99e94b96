"""JSON and CSV interchange for bodies, level families, functions and
certificates; every JSON form reads back to equal JSON.

Body kinds: halfplanes | polychain | ball | epigraph; analytic kinds carry
an optional "cuts" list so clipped bodies round-trip.  Cut items are
written from the body's rows, and a unit normal keeps its bits (as_rows).
A level family is {"ambient", "levels", "bodies"}; a staircase function
is that family with "kind": "staircase" and "gaps", and family_from_json
reads either.  A certificate
is its kind (counterexamples.CERTIFICATES) and its dataclass fields under
their own names, with one encoder and one decoder for every kind.  CSV
floats print with 17 significant digits for bit-stable reparse.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import MISSING
from typing import Optional

import numpy as np

from . import counterexamples as cx
from .geometry import (
    BallBase,
    Body2,
    EpigraphBase,
    GeometryError,
    HalfPlane,
    PlaneBase,
    as_rows,
)
from .levelset import CutLevels, LevelFamily, QCFunction, compose_projection, ramp_qc, staircase_qc


FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _required(data: dict, key: str, what: str):
    """data[key]; GeometryError naming the key when it is missing."""
    if key not in data:
        raise GeometryError(f"{what} is missing required key {key!r}")
    return data[key]


def _hp_pair(item: dict) -> tuple:
    """(normal, offset) of a half-plane item, as as_rows reads it."""
    return tuple(_required(item, key, "half-plane item") for key in ("normal", "offset"))


def _row_items(rows: np.ndarray) -> list:
    """Half-plane items of rows (nx, ny, c)."""
    return [{"normal": [nx, ny], "offset": c} for nx, ny, c in rows.tolist()]


def body_to_json(body: Body2) -> dict:
    cuts = _row_items(body.rows)
    if isinstance(body.base, PlaneBase):
        return {"kind": "halfplanes", "items": cuts}
    if isinstance(body.base, BallBase):
        out = {"kind": "ball", "center": body.base.center.tolist(),
               "radius": float(body.base.radius)}
    elif isinstance(body.base, EpigraphBase):
        eb = body.base
        transform = np.column_stack([eb.M, eb.shift]).tolist()
        out = {"kind": "epigraph", "profile": eb.profile.name,
               "params": eb.profile.params, "transform": transform}
    else:
        raise GeometryError("unknown body representation")
    if cuts:
        out["cuts"] = cuts
    return out


def body_from_json(data: dict) -> Body2:
    kind = data.get("kind")
    what = f"{kind} body"
    if kind == "halfplanes":
        return Body2.from_halfplanes([_hp_pair(i) for i in _required(data, "items", what)])
    if kind == "polychain":
        return Body2.from_polychain(_required(data, "vertices", what), data.get("rays"))
    if kind == "ball":
        body = Body2.ball(_required(data, "center", what), _required(data, "radius", what))
    elif kind == "epigraph":
        body = Body2.epigraph(_required(data, "profile", what), data.get("params") or {},
                              data.get("transform"))
    else:
        raise GeometryError(f"unknown body kind {kind!r}")
    cuts = data.get("cuts")
    if cuts:
        body = body.clip([_hp_pair(i) for i in cuts])
    return body


def family_to_json(fam: LevelFamily) -> dict:
    """The ambient, the levels and each level's body JSON.  A cut family's
    (CutLevels) level is the ambient's JSON with its rows appended to the
    cuts, written without building the level: the JSON of the level
    body, byte for byte."""
    ambient = body_to_json(fam.ambient)
    if isinstance(fam.bodies, CutLevels):
        bodies = [_with_cuts(ambient, fam.bodies.cuts(k)) for k in range(len(fam))]
    else:
        bodies = [body_to_json(b) for b in fam.bodies]
    return {"ambient": ambient, "levels": [float(a) for a in fam.levels], "bodies": bodies}


def _with_cuts(body: dict, rows: np.ndarray) -> dict:
    """body_to_json of a body clipped by rows (nx, ny, c) of unit normals,
    from the body's own JSON."""
    if not len(rows):
        return body
    key = "items" if body["kind"] == "halfplanes" else "cuts"
    return {**body, key: body.get(key, []) + _row_items(rows)}


def family_from_json(data: dict, ambient: Optional[Body2] = None) -> LevelFamily:
    """The level family that family_to_json wrote, or a staircase function's
    family; ambient, when given, stands for the stored one."""
    kind = data.get("kind")
    if kind not in (None, "staircase"):
        raise GeometryError(f"expected a level family or a staircase function, got kind {kind!r}")
    what = "level family"
    if ambient is None:
        ambient = body_from_json(_required(data, "ambient", what))
    return LevelFamily(levels=_required(data, "levels", what),
                       bodies=[body_from_json(b) for b in _required(data, "bodies", what)],
                       ambient=ambient)


def function_to_json(f: QCFunction) -> dict:
    kind = f.meta.get("kind")
    if kind == "staircase":
        return {"kind": "staircase", **family_to_json(f.meta["family"]),
                "gaps": [float(g) for g in f.meta["gaps"]]}
    if kind == "ramp":
        return {"kind": "tilde_f",
                "domain": body_to_json(f.domain),
                "h_normal": f.meta["h"].tolist(),
                "h_offset": float(f.meta["h_offset"]),
                "points": np.asarray(f.meta["points"]).tolist(),
                "alphas": np.asarray(f.meta["alphas"]).tolist(),
                "halfplanes": _row_items(as_rows(f.meta["halfplanes"])),
                "bilip": float(f.meta["bilip"])}
    if kind == "composed":
        return {"kind": "composed",
                "inner": function_to_json(f.meta["inner"]),
                "proj": np.asarray(f.meta["proj"]).tolist()}
    raise GeometryError(f"function kind {kind!r} has no JSON form")


def function_from_json(data: dict) -> QCFunction:
    kind = data.get("kind")
    if kind == "staircase":
        fam = family_from_json(data)
        return staircase_qc(fam.ambient, fam.bodies, fam.levels,
                            np.asarray(_required(data, "gaps", "staircase function"),
                                       dtype=float))
    if kind == "tilde_f":
        return ramp_qc(body_from_json(data["domain"]), data["h_normal"],
                       np.asarray(data["points"], dtype=float),
                       np.asarray(data["alphas"], dtype=float),
                       [HalfPlane(*_hp_pair(i)) for i in data["halfplanes"]],
                       float(data["bilip"]), h_offset=float(data.get("h_offset", 0.0)))
    if kind == "composed":
        inner = function_from_json(data["inner"])
        return compose_projection(inner, np.asarray(data["proj"], dtype=float))
    raise GeometryError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# certificates

def _encode(value):
    """A certificate field's JSON value: half-planes as items, bodies as body
    JSON, arrays and tuples as lists, numpy scalars as Python numbers."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, HalfPlane):
        return _row_items(as_rows([value]))[0]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Body2):
        return body_to_json(value)
    return value


def _decode(value, annotation: str):
    """A certificate field from its JSON value: arrays and bodies by the
    field's annotation, half-plane items wherever they nest in lists."""
    if annotation == "np.ndarray":
        return np.asarray(value, dtype=float)
    if annotation == "Body2":
        return body_from_json(value)
    if isinstance(value, list):
        return [_decode(v, "") for v in value]
    if isinstance(value, dict) and "normal" in value:
        return HalfPlane(*_hp_pair(value))
    return value


def certificate_to_json(cert) -> dict:
    """The certificate's kind and its dataclass fields under their own names,
    leaving out None values and fields whose metadata says json False (a
    frame).  certificate_from_json reads it back to equal JSON."""
    out = {"kind": cert.kind}
    for f in dataclasses.fields(cert):
        value = getattr(cert, f.name)
        if value is not None and f.metadata.get("json", True):
            out[f.name] = _encode(value)
    return out


def certificate_from_json(data: dict):
    """The certificate of data's kind (counterexamples.CERTIFICATES), built
    from its fields; a derived field (init=False) is computed again and a
    missing required one raises GeometryError."""
    kind = data.get("kind")
    if kind not in cx.CERTIFICATES:
        raise GeometryError(f"unknown certificate kind {kind!r}")
    cls, what = cx.CERTIFICATES[kind][0], f"{kind} certificate"
    fields = {}
    for f in dataclasses.fields(cls):
        optional = f.default is not MISSING or f.default_factory is not MISSING
        if f.init and (f.name in data or not optional):
            fields[f.name] = _decode(_required(data, f.name, what), f.type)
    return cls(**fields)


def certificate_tables(cert) -> dict:
    """Per-certificate CSV tables, by kind: name -> (header, rows)."""
    if cert.kind == "no_lip":
        k = np.arange(len(cert.products))
        rows = np.column_stack([k, cert.secant_gaps, cert.alphas[1:len(k) + 1],
                                cert.products, cert.lip_lower_bounds])
        return {"blowup": (["k", "secant_gap", "alpha_next", "product", "K_lower"],
                           rows),
                "profile": (["z", "g"], np.asarray(cert.profile_samples))}
    if cert.kind == "no_uc":
        n = np.arange(1, len(cert.points) + 1)
        pts = np.asarray(cert.points)
        rows = np.column_stack([n, pts[:, 0], pts[:, 1], cert.levels])
        k = np.arange(1, len(cert.gaps) + 1)
        gaps = np.column_stack([k, cert.gaps])
        return {"chain": (["n", "x", "y", "alpha"], rows),
                "gaps": (["k", "gap"], gaps)}
    if cert.kind in ("no_qc", "non_rotund"):
        m = min(len(cert.levels), len(cert.arc_lengths))
        rows = np.column_stack([np.arange(m), cert.levels[:m], cert.arc_lengths[:m]])
        return {"forcing": (["n", "alpha", "arc_length"], rows)}
    if cert.kind == "usc":
        rows = np.array([[cert.value_bottom, cert.value_corner]])
        return {"usc": (["f_bottom", "f_corner"], rows)}
    return {}


def write_csv(path, header, rows, meta: dict = None):
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows, meta))


def csv_text(header, rows, meta: dict = None) -> str:
    buf = io.StringIO()
    if meta:
        for k in sorted(meta):
            buf.write(f"# {k}: {meta[k]}\n")
    buf.write(",".join(header) + "\n")
    for row in np.atleast_2d(np.asarray(rows, dtype=float)):
        buf.write(",".join(fmt(v) for v in row) + "\n")
    return buf.getvalue()


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def family_hash(fam: LevelFamily) -> str:
    return content_hash(family_to_json(fam))[:16]


def grid_csv(ext, window, n: int, meta: dict = None) -> str:
    """Evaluate an extension on an n x n grid; CSV columns x, y, F."""
    xmin, xmax, ymin, ymax = window
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = ext.eval_many(pts)
    rows = np.column_stack([pts, vals])
    base_meta = {"window": list(window), "resolution": n}
    if meta:
        base_meta.update(meta)
    return csv_text(["x", "y", "F"], rows, base_meta)
