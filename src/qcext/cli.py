"""Command-line front end: bodies, extensions, certificates, classification,
verification and plots."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import config as cfg
from . import counterexamples as cx
from . import extension as ext
from . import plots
from . import serialize as ser
from . import verify as vf
from .geometry import Body2, GeometryError, recession_cone
from .levelset import LevelSetError

_BALL = (("center", "radius"),
         lambda p: Body2.ball(p.get("center", (0.0, 0.0)), p.get("radius", 1.0)))

#: gallery bodies: name -> (the --params keys it takes, constructor)
GALLERY = {
    "disk": _BALL,
    "ball": _BALL,
    "square": ((), lambda p: Body2.from_polychain([(-1, -1), (1, -1), (1, 1), (-1, 1)])),
    "rectangle": ((), lambda p: Body2.from_polychain([(0, -1), (1, -1), (1, 1), (0, 1)])),
    "triangle": ((), lambda p: Body2.from_polychain([(0, 1), (2, 1), (1, -3)])),
    "parabola": (("a", "c"), lambda p: Body2.epigraph("parabola", p or None)),
    "exp_hypograph": ((), lambda p: Body2.epigraph("exp_hypograph")),
    "hypograph": ((), lambda p: Body2.epigraph("exp_hypograph")),
    "cosh": (("c",), lambda p: Body2.epigraph("cosh", p or None)),
    "halfplane": ((), lambda p: Body2.from_halfplanes([((0.0, 1.0), 1.0)])),
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_params(name: str, params: dict):
    """ValueError unless every key of params is one the gallery body takes,
    with a finite number as its value (a pair of them for center)."""
    keys = GALLERY[name][0]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        takes = f"takes --params keys {list(keys)}" if keys else "takes no --params"
        raise ValueError(f"body {name!r} {takes}, not {unknown}")
    for key, value in params.items():
        pair = key == "center"
        ok = (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
              if pair else _is_number(value))
        if not ok:
            want = "a pair of finite numbers" if pair else "a finite number"
            raise ValueError(f"--params {key!r} must be {want}, not {json.dumps(value)}")


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str, out: str = ""):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _load_body(path: str) -> Body2:
    return ser.body_from_json(_read_json(path))


def _parse_window(text):
    """xmin,xmax,ymin,ymax, finite, with xmin < xmax and ymin < ymax."""
    box = tuple(float(x) for x in text.split(","))
    if len(box) != 4 or not (np.isfinite(box).all() and box[0] < box[1] and box[2] < box[3]):
        raise argparse.ArgumentTypeError("window must be finite xmin,xmax,ymin,ymax "
                                         "with xmin < xmax and ymin < ymax")
    return box


def _body_info(body: Body2) -> dict:
    cone = recession_cone(body)
    cls = cx.characterize(body)
    return {
        "bounded": cls.predicates["bounded"],
        "rotund": cls.predicates["rotund"],
        "recession_cone": {"kind": cone.kind,
                           "directions": [np.asarray(d).tolist()
                                          for d in cone.directions()]},
        "asymptotic_direction": {"direction": cls.evidence["asymptotic_direction"],
                                 "witness": cls.evidence["asymptotic_witness"]}
        if cls.predicates["has_asymptotic_direction"] else None,
        "witness": body.witness.tolist(),
        "clearance": body.clearance,
    }


def cmd_body(args, conf) -> int:
    if args.action == "make":
        if args.name not in GALLERY:
            print(f"unknown body name {args.name!r}; "
                  f"choose from {sorted(GALLERY)}", file=sys.stderr)
            return 2
        params = json.loads(args.params or "{}")
        if not isinstance(params, dict):
            print("--params must be a JSON object", file=sys.stderr)
            return 2
        try:
            _check_params(args.name, params)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
        body = GALLERY[args.name][1](params)
        _emit(json.dumps(ser.body_to_json(body), indent=2), conf.out)
        return 0
    data = _read_json(args.file)
    try:
        body = ser.body_from_json(data)
    except (GeometryError, ValueError) as e:
        print(f"invalid body: {e}", file=sys.stderr)
        return 2
    if args.action == "validate":
        _emit(json.dumps(ser.body_to_json(body), indent=2), conf.out)
        return 0
    info = {"body": ser.body_to_json(body)}
    info.update(_body_info(body))
    _emit(json.dumps(info, indent=2), conf.out)
    return 0


def _extension(path: str, body: Body2, conf) -> ext.ExtensionResult:
    """The extension of the family JSON at path on body, nested to within
    max(--tol, 1e-9): the one build of extend and plot --function."""
    fam = ser.family_from_json(_read_json(path), body)
    return ext.extend_function(fam, tol=max(conf.tol, 1e-9))


def cmd_extend(args, conf) -> int:
    res = _extension(args.function, _load_body(args.body), conf)
    meta = {"family": ser.family_hash(res.family), "regularity": res.regularity}
    csv = ser.grid_csv(res, args.window_box, conf.grid, meta)
    _emit(csv, conf.out or "extension.csv")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(plots.svg_extension(res, args.window_box))
    return 0


def cmd_certify(args, conf) -> int:
    kind = args.kind.replace("-", "_")
    body = _load_body(args.body) if args.body else None
    try:
        _, cert = cx.CERTIFICATES[kind][1](body, k_max=conf.kmax)
    except (cx.ConstructionError, GeometryError) as e:
        print(f"hypothesis check failed: {e}", file=sys.stderr)
        return 2
    prefix = conf.out or f"certificate_{kind}"
    with open(f"{prefix}.json", "w") as fh:
        json.dump(ser.certificate_to_json(cert), fh, indent=2)
    written = [f"{prefix}.json"]
    for name, (header, rows) in ser.certificate_tables(cert).items():
        path = f"{prefix}_{name}.csv"
        ser.write_csv(path, header, rows, {"kind": args.kind})
        written.append(path)
    if args.svg:
        try:
            with open(args.svg, "w") as fh:
                fh.write(plots.svg_certificate(cert))
            written.append(args.svg)
        except ValueError:
            pass
    print("\n".join(written))
    return 0


def cmd_characterize(args, conf) -> int:
    body = _load_body(args.body)
    cls = cx.characterize(body)
    print(cls.extendability_class)
    payload = {"class": cls.extendability_class, "predicates": cls.predicates,
               "denied": cls.denied, "granted": cls.granted,
               "evidence": cls.evidence}
    _emit(json.dumps(payload, indent=2), conf.out)
    return 0


def cmd_verify(args, conf) -> int:
    try:
        report = vf.run_suite(args.suite, seed=conf.seed, budget=args.budget,
                              plant_failure=args.plant_failure)
    except vf.VerifyError as e:
        print(str(e), file=sys.stderr)
        return 2
    print(report.summary())
    if conf.out:
        with open(conf.out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
    return 0 if report.passed else 1


def cmd_plot(args, conf) -> int:
    if args.certificate:
        cert = ser.certificate_from_json(_read_json(args.certificate))
        try:
            svg = plots.svg_certificate(cert)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
        _emit(svg, conf.out or "plot.svg")
        return 0
    body = _load_body(args.body)
    if args.function:
        svg = plots.svg_extension(_extension(args.function, body, conf), args.window_box)
    else:
        svg = plots.svg_body(body, args.window_box)
    _emit(svg, conf.out or "plot.svg")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--kmax", type=int, default=None)
    common.add_argument("--grid", type=int, default=None)
    common.add_argument("--out", default="")
    boxed = argparse.ArgumentParser(add_help=False)
    boxed.add_argument("--window-box", type=_parse_window, default=(-8.0, 8.0, -8.0, 8.0))

    p = argparse.ArgumentParser(prog="qcext",
                                description="planar quasiconvex extension toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("body", parents=[common], help="make/validate/inspect bodies")
    pb.add_argument("action", choices=["make", "validate", "info"])
    pb.add_argument("name_or_file", nargs="?", default="")
    pb.add_argument("--params", default="")
    pb.set_defaults(fn=cmd_body)

    pe = sub.add_parser("extend", parents=[common, boxed], help="extend a level family")
    pe.add_argument("--body", required=True)
    pe.add_argument("--function", required=True)
    pe.add_argument("--svg", default="")
    pe.set_defaults(fn=cmd_extend)

    pc = sub.add_parser("certify", parents=[common],
                        help="emit a non-extendability certificate")
    pc.add_argument("--kind", required=True,
                    choices=sorted(k.replace("_", "-") for k in cx.CERTIFICATES))
    pc.add_argument("--body", default="")
    pc.add_argument("--svg", default="")
    pc.set_defaults(fn=cmd_certify)

    pch = sub.add_parser("characterize", parents=[common],
                         help="classify a body's extendability")
    pch.add_argument("--body", required=True)
    pch.set_defaults(fn=cmd_characterize)

    pv = sub.add_parser("verify", parents=[common], help="run a property suite")
    pv.add_argument("--suite", default="geometry", choices=vf.SUITES)
    pv.add_argument("--budget", default="default", choices=["default", "small"])
    pv.add_argument("--plant-failure", action="store_true")
    pv.set_defaults(fn=cmd_verify)

    pp = sub.add_parser("plot", parents=[common, boxed], help="emit an SVG figure")
    pp.add_argument("--body", default="")
    pp.add_argument("--function", default="")
    pp.add_argument("--certificate", default="")
    pp.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        conf = cfg.from_flags(args)
    except ValueError as e:
        print(f"invalid setting: {e}", file=sys.stderr)
        return 2
    # body takes its file from the positional argument
    if args.command == "body":
        if args.action == "make":
            args.name = args.name_or_file
        else:
            args.file = args.name_or_file
    try:
        return args.fn(args, conf)
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (LevelSetError, ext.ExtensionError, GeometryError, json.JSONDecodeError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
