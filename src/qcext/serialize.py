"""JSON and CSV interchange for bodies, functions and certificates.

Body schema kinds: halfplanes | polychain | ball | epigraph; analytic
kinds carry an optional "cuts" list so clipped bodies round-trip.  CSV
floats print with 17 significant digits for bit-stable reparse.
"""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np

from .geometry import (
    BallBase,
    Body2,
    EpigraphBase,
    GeometryError,
    HalfPlane,
    PlaneBase,
)
from .levelset import LevelFamily, QCFunction, compose_projection, ramp_qc, staircase_qc


FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def _hp_item(hp: HalfPlane) -> dict:
    return {"normal": [float(hp.normal[0]), float(hp.normal[1])],
            "offset": float(hp.offset)}


def _hp_parse(item: dict) -> HalfPlane:
    return HalfPlane.from_any(item["normal"], item["offset"])


def body_to_json(body: Body2) -> dict:
    cuts = [_hp_item(hp) for hp in body.cuts]
    if isinstance(body.base, PlaneBase):
        return {"kind": "halfplanes", "items": cuts}
    if isinstance(body.base, BallBase):
        out = {"kind": "ball", "center": body.base.center.tolist(),
               "radius": float(body.base.radius)}
        if cuts:
            out["cuts"] = cuts
        return out
    if isinstance(body.base, EpigraphBase):
        eb = body.base
        transform = np.column_stack([eb.M, eb.shift]).tolist()
        out = {"kind": "epigraph", "profile": eb.profile.name,
               "params": eb.profile.params, "transform": transform}
        if cuts:
            out["cuts"] = cuts
        return out
    raise GeometryError("unknown body representation")


def body_from_json(data: dict) -> Body2:
    kind = data.get("kind")
    if kind == "halfplanes":
        return Body2.from_halfplanes([_hp_parse(i) for i in data["items"]])
    if kind == "polychain":
        return Body2.from_polychain(data["vertices"], data.get("rays"))
    if kind == "ball":
        body = Body2.ball(data["center"], data["radius"])
    elif kind == "epigraph":
        body = Body2.epigraph(data["profile"], data.get("params") or {},
                              data.get("transform"))
    else:
        raise GeometryError(f"unknown body kind {kind!r}")
    cuts = data.get("cuts")
    if cuts:
        body = body.clip([_hp_parse(i) for i in cuts])
    return body


def family_to_json(fam: LevelFamily) -> dict:
    return {"ambient": body_to_json(fam.ambient),
            "levels": [float(a) for a in fam.levels],
            "bodies": [body_to_json(b) for b in fam.bodies]}


def function_to_json(f: QCFunction) -> dict:
    kind = f.meta.get("kind")
    if kind == "staircase":
        fam = f.meta["family"]
        return {"kind": "staircase", "ambient": body_to_json(fam.ambient),
                "bodies": [body_to_json(b) for b in fam.bodies],
                "levels": [float(a) for a in fam.levels],
                "gaps": [float(g) for g in f.meta["gaps"]]}
    if kind == "ramp":
        return {"kind": "tilde_f",
                "domain": body_to_json(f.domain),
                "h_normal": f.meta["h"].tolist(),
                "h_offset": float(f.meta["h_offset"]),
                "points": np.asarray(f.meta["points"]).tolist(),
                "alphas": np.asarray(f.meta["alphas"]).tolist(),
                "halfplanes": [_hp_item(h) for h in f.meta["halfplanes"]],
                "bilip": float(f.meta["bilip"])}
    if kind == "composed":
        return {"kind": "composed",
                "inner": function_to_json(f.meta["inner"]),
                "proj": np.asarray(f.meta["proj"]).tolist()}
    raise GeometryError(f"function kind {kind!r} has no JSON form")


def function_from_json(data: dict) -> QCFunction:
    kind = data.get("kind")
    if kind == "staircase":
        ambient = body_from_json(data["ambient"])
        bodies = [body_from_json(b) for b in data["bodies"]]
        return staircase_qc(ambient, bodies,
                            np.asarray(data["levels"], dtype=float),
                            np.asarray(data["gaps"], dtype=float))
    if kind == "tilde_f":
        return ramp_qc(body_from_json(data["domain"]), data["h_normal"],
                       np.asarray(data["points"], dtype=float),
                       np.asarray(data["alphas"], dtype=float),
                       [_hp_parse(i) for i in data["halfplanes"]],
                       float(data["bilip"]), h_offset=float(data.get("h_offset", 0.0)))
    if kind == "composed":
        inner = function_from_json(data["inner"])
        return compose_projection(inner, np.asarray(data["proj"], dtype=float))
    raise GeometryError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# certificates

def _arr(x):
    return np.asarray(x, dtype=float).tolist()


def certificate_to_json(cert) -> dict:
    name = type(cert).__name__
    if name == "NoLipCertificate":
        return {"kind": "no_lip", "eps": cert.eps, "gauge": cert.gauge,
                "alphas": _arr(cert.alphas), "secant_gaps": _arr(cert.secant_gaps),
                "levels": _arr(cert.levels),
                "lines": [[float(a), float(b)] for a, b in cert.lines],
                "p_points": _arr(cert.p_points), "q_points": _arr(cert.q_points),
                "lip_lower_bounds": _arr(cert.lip_lower_bounds),
                "products": _arr(cert.products),
                "body_cuts": [[_hp_item(h) for h in cl] for cl in cert.body_cuts],
                "profile_samples": _arr(cert.profile_samples),
                "params": cert.params}
    if name == "NoUCCertificate":
        return {"kind": "no_uc", "bilip": cert.bilip,
                "points": _arr(cert.points), "levels": _arr(cert.levels),
                "gaps": _arr(cert.gaps),
                "halfplanes": [_hp_item(h) for h in cert.halfplanes],
                "h_normal": _arr(cert.h_normal), "h_offset": cert.h_offset,
                "params": cert.params}
    if name == "ForcingCertificate":
        out = {"kind": cert.kind, "levels": _arr(cert.levels),
               "forcing_halfplanes": [_hp_item(h) for h in cert.forcing_halfplanes],
               "arc_lengths": _arr(cert.arc_lengths),
               "witnesses": _arr(cert.witnesses),
               "trend": cert.divergence_trend(), "params": cert.params}
        if cert.jump is not None:
            out["jump"] = [float(cert.jump[0]), float(cert.jump[1])]
        return out
    if name == "UscWitness":
        return {"kind": "usc", "value_bottom": cert.value_bottom,
                "value_corner": cert.value_corner,
                "ball_center": _arr(cert.ball_center),
                "forcing_segment": [list(cert.forcing_segment[0]),
                                    list(cert.forcing_segment[1])],
                "domain": body_to_json(cert.domain)}
    raise GeometryError(f"unknown certificate type {name}")


def certificate_from_json(data: dict):
    """Rebuild a certificate object from its JSON form (for plotting)."""
    from .counterexamples import (ForcingCertificate, NoLipCertificate,
                                  NoUCCertificate, UscWitness)

    kind = data.get("kind")
    if kind == "no_lip":
        return NoLipCertificate(
            eps=float(data["eps"]), gauge=float(data["gauge"]),
            profile_samples=np.asarray(data["profile_samples"], dtype=float),
            secant_gaps=np.asarray(data["secant_gaps"], dtype=float),
            alphas=np.asarray(data["alphas"], dtype=float),
            levels=np.asarray(data["levels"], dtype=float),
            body_cuts=[[_hp_parse(i) for i in cl] for cl in data["body_cuts"]],
            lines=[tuple(row) for row in data["lines"]],
            p_points=np.asarray(data["p_points"], dtype=float),
            q_points=np.asarray(data["q_points"], dtype=float),
            lip_lower_bounds=np.asarray(data["lip_lower_bounds"], dtype=float),
            products=np.asarray(data["products"], dtype=float),
            params=data.get("params", {}))
    if kind == "no_uc":
        return NoUCCertificate(
            points=np.asarray(data["points"], dtype=float),
            levels=np.asarray(data["levels"], dtype=float),
            bilip=float(data["bilip"]),
            halfplanes=[_hp_parse(i) for i in data["halfplanes"]],
            gaps=np.asarray(data["gaps"], dtype=float),
            h_normal=np.asarray(data["h_normal"], dtype=float),
            h_offset=float(data["h_offset"]), params=data.get("params", {}))
    if kind in ("no_qc", "non_rotund"):
        return ForcingCertificate(
            kind=kind, levels=np.asarray(data["levels"], dtype=float),
            forcing_halfplanes=[_hp_parse(i) for i in data["forcing_halfplanes"]],
            arc_lengths=np.asarray(data["arc_lengths"], dtype=float),
            witnesses=np.asarray(data["witnesses"], dtype=float),
            jump=tuple(data["jump"]) if data.get("jump") else None,
            params=data.get("params", {}))
    if kind == "usc":
        from .counterexamples import gen_usc_counterexample

        return gen_usc_counterexample()[1]
    raise GeometryError(f"unknown certificate kind {kind!r}")


def certificate_tables(cert) -> dict:
    """Per-certificate CSV tables: name -> (header, rows)."""
    name = type(cert).__name__
    if name == "NoLipCertificate":
        k = np.arange(len(cert.products))
        rows = np.column_stack([k, cert.secant_gaps, cert.alphas[1:len(k) + 1],
                                cert.products, cert.lip_lower_bounds])
        return {"blowup": (["k", "secant_gap", "alpha_next", "product", "K_lower"],
                           rows),
                "profile": (["z", "g"], np.asarray(cert.profile_samples))}
    if name == "NoUCCertificate":
        n = np.arange(1, len(cert.points) + 1)
        pts = np.asarray(cert.points)
        rows = np.column_stack([n, pts[:, 0], pts[:, 1], cert.levels])
        k = np.arange(1, len(cert.gaps) + 1)
        gaps = np.column_stack([k, cert.gaps])
        return {"chain": (["n", "x", "y", "alpha"], rows),
                "gaps": (["k", "gap"], gaps)}
    if name == "ForcingCertificate":
        m = min(len(cert.levels), len(cert.arc_lengths))
        rows = np.column_stack([np.arange(m), cert.levels[:m], cert.arc_lengths[:m]])
        return {"forcing": (["n", "alpha", "arc_length"], rows)}
    if name == "UscWitness":
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
