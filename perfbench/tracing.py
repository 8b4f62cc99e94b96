"""Spans and counters at qcext's module boundaries, installed from outside.

``Tracer.install`` swaps wrappers in for the listed functions, in every
``qcext`` module that holds them (the defining module and each module that
imported the name), and for the listed class methods; ``uninstall`` puts the
originals back.  Span wrappers record (name, start, end, parent, request) in
memory; hot calls are only counted.  Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

from qcext import counterexamples as cx
from qcext import extension as ext
from qcext import geometry as geo
from qcext import levelset as ls
from qcext import serialize as ser

#: module-level functions traced with a span: (module, attribute, span name)
FUNCTION_SPANS = [
    (geo, "relative_boundary", "geometry.relative_boundary"),
    (geo, "supporting_normals", "geometry.supporting_normals"),
    (geo, "prune_halfplanes", "geometry.prune_halfplanes"),
    (geo, "distance_many", "geometry.distance_many"),
    (geo, "support", "geometry.support"),
    (ext, "extend_body", "extension.extend_body"),
    (ext, "restriction_hausdorff", "extension.restriction_hausdorff"),
    (ext, "segment_meets_body", "extension.segment_meets_body"),
    (ls, "sample_domain", "levelset.sample_domain"),
    (ls, "quasiconvex_check", "levelset.quasiconvex_check"),
    (ls, "staircase_qc", "levelset.staircase_qc"),
    (cx, "characterize", "counterexamples.characterize"),
    (cx, "gen_no_lip", "counterexamples.gen_no_lip"),
    (cx, "gen_no_uc", "counterexamples.gen_no_uc"),
    (cx, "gen_no_qc", "counterexamples.gen_no_qc"),
    (cx, "gen_non_rotund", "counterexamples.gen_non_rotund"),
    (ser, "certificate_to_json", "serialize.certificate"),
    (ser, "certificate_tables", "serialize.certificate"),
]

#: class methods traced with a span: (class, method, span name)
METHOD_SPANS = [
    (geo.Body2, "__init__", "geometry.body_init"),
    (geo.Body2, "pieces", "geometry.pieces"),
    (ext.ExtensionOperator, "covering_index_many", "extension.covering_index_many"),
    (ext.ExtensionResult, "eval_many", "extension.eval_many"),
    (ls.LevelFamily, "eval_many", "levelset.family_eval"),
    (ls.LevelFamily, "validate_nesting", "levelset.validate_nesting"),
]

#: scalar root finders whose calls and closure evaluations are counted
ROOT_FINDERS = ["bisect_leq", "golden_min", "coarse_golden_min"]


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            a, b = max(spans[c][1], reach), min(spans[c][2], t1)
            if b > a:
                covered += b - a
                reach = b
        out.append(t1 - t0 - covered)
    return out


def _rows(pts) -> int:
    shape = np.shape(pts)
    return 1 if len(shape) < 2 else shape[0]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._undo = []
        self._operators = {}     # id -> operator, kept alive so ids stay unique

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                out = fn(*args, **kw)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, before):
        def wrapper(*args, **kw):
            before(args)
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def _root_finder(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kw):
            counts["geometry.root.calls"] += 1
            if not getattr(f, "_bench_counted", False):
                inner = f

                def f(t):
                    counts["geometry.root.fevals"] += 1
                    return inner(t)

                f._bench_counted = True
            return fn(f, *args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters fed by the wrappers ----------------------------------------------

    def _count_profile(self, args):
        self.counts["geometry.profile.calls"] += 1
        self.counts["geometry.profile.points"] += int(np.size(args[1]))

    def _count_margin(self, args):
        body, pts = args[0], args[1]
        self.counts["extension.margin_ops"] += _rows(pts) * len(body.halfplanes)

    def _count_extended(self, args):
        op, k = args[0], args[1]
        self.counts["extension.extended.requests"] += 1
        if k not in op._cache:
            self.counts["extension.extended.builds"] += 1
        if id(op) not in self._operators:
            self._operators[id(op)] = op
            self.counts["extension.family_levels"] += len(op.family)

    def _after_extend_body(self, args, out):
        if out.special is None:
            self.counts["extension.extended_bodies"] += 1
            self.counts["extension.halfplanes"] += len(out.halfplanes)

    def _after_sample_domain(self, args, out):
        self.counts["levelset.sample_domain.points"] += len(out)

    def _count(self, key):
        counts = self.counts

        def bump(args):
            counts[key] += 1

        return bump

    # -- install / uninstall -----------------------------------------------------

    def _replace_everywhere(self, orig, new):
        for name, mod in list(sys.modules.items()):
            if name != "qcext" and not name.startswith("qcext."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_attr(self, owner, attr, make):
        orig = vars(owner)[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        after = {"extension.extend_body": self._after_extend_body,
                 "levelset.sample_domain": self._after_sample_domain}
        for mod, attr, name in FUNCTION_SPANS:
            orig = getattr(mod, attr)
            self._replace_everywhere(orig, self._span(name, orig, after.get(name)))
        for cls, attr, name in METHOD_SPANS:
            self._replace_attr(cls, attr, lambda f, n=name: self._span(n, f))
        for attr in ROOT_FINDERS:
            orig = getattr(geo, attr)
            self._replace_everywhere(orig, self._root_finder(orig))
        # only the calls made from geometry count, so only its names change
        for attr, key in (("linprog", "geometry.linprog.calls"),
                          ("ConvexHull", "geometry.qhull.calls")):
            self._replace_attr(geo, attr, lambda f, k=key: self._counted(f, self._count(k)))
        for cls in _profile_classes():
            for attr in ("g", "dg"):
                if attr in cls.__dict__:
                    self._replace_attr(cls, attr,
                                         lambda f: self._counted(f, self._count_profile))
        self._replace_attr(ext.ExtendedBody, "margin_many",
                             lambda f: self._counted(f, self._count_margin))
        self._replace_attr(ext.ExtensionOperator, "extended",
                             lambda f: self._counted(f, self._count_extended))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded so far."""
        own = self_times(self.spans)
        calls, self_s, durations = Counter(), defaultdict(float), defaultdict(list)
        for s, st in zip(self.spans, own):
            calls[s[0]] += 1
            self_s[s[0]] += st
            durations[s[0]].append(s[2] - s[1])
        names = {n for _, _, n in FUNCTION_SPANS} | {n for _, _, n in METHOD_SPANS}
        out = {}
        for n in sorted(names):
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_s"] = self_s[n]
        c = self.counts
        ext_ms = [1e3 * d for d in durations["extension.extend_body"]]
        out.update({
            "geometry.linprog.calls": c["geometry.linprog.calls"],
            "geometry.qhull.calls": c["geometry.qhull.calls"],
            "geometry.root.calls": c["geometry.root.calls"],
            "geometry.root.fevals": c["geometry.root.fevals"],
            "geometry.profile.calls": c["geometry.profile.calls"],
            "geometry.profile.points": c["geometry.profile.points"],
            "extension.extend_body.p50_ms": percentile(ext_ms, 50) if ext_ms else 0.0,
            "extension.build_ratio": (c["extension.extended.builds"]
                                      / c["extension.family_levels"]
                                      if c["extension.family_levels"] else 0.0),
            "extension.halfplanes_per_body": (c["extension.halfplanes"]
                                              / c["extension.extended_bodies"]
                                              if c["extension.extended_bodies"] else 0.0),
            "extension.margin_ops": c["extension.margin_ops"],
            "levelset.sample_domain.points": c["levelset.sample_domain.points"],
        })
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _profile_classes() -> list:
    out, todo = [], [geo.Profile]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
