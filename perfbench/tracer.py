"""Spans around the public functions of every ``hlawka`` module.

Nothing in the library is edited: the tracer finds each public function by
identity and replaces *every* module attribute that holds that object, so
names imported with ``from .special import upper_incomplete_gamma`` (zeta),
``from .lattice import build_spectrum`` (funceq) and attribute calls such as
``lattice.build_spectrum`` (cli) all go through one wrapper.
``RadialShape.evaluate`` is the one method wrapped, as the shape layer's
kernel.  ``map_box_chunks`` also wraps the chunk function it is handed, so
each chunk is a span; chunks run in pool threads take the enclosing
``map_box_chunks`` span as parent.

A span is ``(id, name, start, end, parent, job, thread, attrs)``.  Spans stay
in memory and are written once, when the run ends.  A wrapped name that no
longer exists is reported in ``missing``; metrics that need it are None.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "shapes", "lattice", "zeta", "special", "fourier", "funceq", "results", "errors")
METHODS = {"shapes.RadialShape.evaluate": ("shapes", "RadialShape", "evaluate")}


def _arg(f, args, kwargs, name):
    try:
        return inspect.signature(f).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


# attrs recorded per span: name -> hook(f, args, kwargs, result) -> dict
def _radius(f, args, kwargs, result):
    if _arg(f, args, kwargs, "mode") not in (None, "truncated"):
        return None
    radius = _arg(f, args, kwargs, "radius")
    return {"radius": float(radius)} if radius is not None else None


HOOKS = {
    "lattice.map_box_chunks": lambda f, a, k, r: {"bound": int(_arg(f, a, k, "bound")),
                                                   "threads": _arg(f, a, k, "threads")},
    "lattice.dilation_times_block": lambda f, a, k, r: {"points": int(np.size(a[1]))},
    "shapes.RadialShape.evaluate": lambda f, a, k, r: {"points": int(np.size(a[1]))},
    "zeta.hlawka_direct_many": _radius,
    "zeta.epstein_direct": _radius,
    "zeta.eisenstein_fq_truncated": _radius,
    "zeta.reconstruct_hlawka": _radius,
    "zeta.epstein_lambda": lambda f, a, k, r: {"rings": int(r.truncation["rings"])},
    "zeta.eisenstein_fq_continued": lambda f, a, k, r: {"rings": int(r.truncation["rings"])},
    "lattice.build_spectrum": lambda f, a, k, r: {"entries": len(r.entries)},
    "funceq.perron_count_approx": lambda f, a, k, r: {"lobes": len(r[1].lobe_ends)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job: str | None = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_parent: int | None = None
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- patching ---------------------------------------------------------

    def _plan(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"hlawka.{layer}")
            except ImportError:
                self.missing.append(f"hlawka.{layer}")
        originals = {}  # id(function) -> (name, function)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, f) for key, (name, f) in originals.items()}
        owners = list(modules.values()) + [importlib.import_module("hlawka")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    self._patches.append((owner, attr, obj, wrappers[id(obj)]))
        for name, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            f = getattr(cls, meth, None) if cls is not None else None
            if f is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, meth, f, self._wrap(name, f)))
        present = {name for name, _ in originals.values()} | set(METHODS)
        self.missing += [name for name in HOOKS if name not in present]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, st):
        if st:
            return st[-1]
        return None if threading.current_thread() is self._main else self._pool_parent

    def _wrap(self, name: str, f):
        hook = HOOKS.get(name)
        chunked = name == "lattice.map_box_chunks"
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = tracer._parent(st)
            sid = next(tracer._ids)
            st.append(sid)
            if chunked:
                args, kwargs = tracer._chunk_args(f, args, kwargs)
                outer, tracer._pool_parent = tracer._pool_parent, sid
            t0 = time.perf_counter()
            done = False
            try:
                result = f(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                st.pop()
                if chunked:
                    tracer._pool_parent = outer
                attrs = tracer._attrs(hook, f, args, kwargs, result) if done else None
                tracer.spans.append((sid, name, t0, t1, parent, tracer.job,
                                     threading.get_ident(), attrs))

        wrapper.__wrapped__ = f
        return wrapper

    def _attrs(self, hook, f, args, kwargs, result):
        if hook is None:
            return None
        try:
            return hook(f, args, kwargs, result)
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            # a changed signature or result type loses the attrs, not the run
            self.missing.append(f"attrs of {getattr(f, '__qualname__', f)}: {exc}")
            return None

    def _chunk_args(self, f, args, kwargs):
        bound = inspect.signature(f).bind(*args, **kwargs)
        func = bound.arguments.get("func")
        if func is None:
            self.missing.append("map_box_chunks(func=...)")
            return args, kwargs
        tracer = self

        def chunk(m, n):
            st = tracer._stack()
            parent = tracer._parent(st)
            sid = next(tracer._ids)
            st.append(sid)
            t0 = time.perf_counter()
            try:
                return func(m, n)
            finally:
                t1 = time.perf_counter()
                st.pop()
                tracer.spans.append((sid, "lattice.chunk", t0, t1, parent, tracer.job,
                                     threading.get_ident(),
                                     {"points": int(m.size), "nbytes": int(m.nbytes + n.nbytes)}))

        bound.arguments["func"] = chunk
        return bound.args, bound.kwargs

    def write(self, path: Path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "job",
                                               "thread", "attrs"), sp))) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {sp[0]: sp for sp in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for sp in spans:
            self.children[sp[4]].append(sp)
            self.by_name[sp[1]].append(sp)

    def self_time(self, sp, exclude=None) -> float:
        """Duration minus the union of child intervals (children named in
        ``exclude`` only, when given)."""
        t0, t1 = sp[2], sp[3]
        ivs = sorted((max(c[2], t0), min(c[3], t1)) for c in self.children[sp[0]]
                     if exclude is None or c[1] in exclude)
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (t1 - t0) - covered

    def ancestors(self, sp):
        p = sp[4]
        while p is not None and p in self.by_id:
            yield self.by_id[p]
            p = self.by_id[p][4]

    def outermost(self, name):
        return [sp for sp in self.by_name[name] if all(a[1] != name for a in self.ancestors(sp))]

    def under(self, sp, names) -> bool:
        return any(a[1] in names for a in self.ancestors(sp))

    def dur(self, spans) -> float:
        return float(sum(sp[3] - sp[2] for sp in spans))


DIRECT_KERNELS = ("zeta.hlawka_direct_many", "zeta.epstein_direct", "zeta.eisenstein_fq_truncated",
                  "zeta.reconstruct_hlawka")
CONTINUED_KERNELS = ("zeta.epstein_lambda", "zeta.eisenstein_fq_continued")


def _mean(xs):
    return float(np.mean(xs)) if len(xs) else None


def _per(num, den, scale=1.0):
    return scale * num / den if den else None


def layer_metrics(spans, disc_count) -> dict:
    """Per-layer numbers from the spans of the timed jobs (setup excluded).

    A metric is None when a span it needs is absent: the traced run calls
    every layer, so that means a wrapped function was renamed or is no
    longer called, and a 0 would read as an improvement."""
    ix = SpanIndex(spans)
    out = {}
    mains = ix.by_name["cli.main"]
    cli_self = defaultdict(float)
    for name, group in ix.by_name.items():
        if name.startswith("cli."):
            for sp in group:
                cli_self[sp[5]] += ix.self_time(sp)
    out["cli.self_ms"] = _mean([1e3 * cli_self[sp[5]] for sp in mains])

    evals = ix.outermost("shapes.RadialShape.evaluate")
    pts = sum(sp[7]["points"] for sp in evals if sp[7])
    out["shapes.eval.points"] = pts or None
    out["shapes.eval.ns_per_point"] = _per(ix.dur(evals), pts, 1e9)

    chunks = ix.by_name["lattice.chunk"]
    if chunks:
        out["lattice.box_points"] = sum(sp[7]["points"] for sp in chunks)
        out["lattice.chunks"] = len(chunks)
        out["lattice.chunk_points.max"] = max(sp[7]["points"] for sp in chunks)
        out["lattice.chunk_mb.max"] = max(sp[7]["nbytes"] for sp in chunks) / 1e6
        out["lattice.chunk_ms.p50"] = 1e3 * float(np.median([sp[3] - sp[2] for sp in chunks]))
    maps = ix.by_name["lattice.map_box_chunks"]
    capacity = sum((sp[3] - sp[2]) * max(1, min(sp[7]["threads"] or 1, len(ix.children[sp[0]])))
                   for sp in maps if sp[7])
    out["lattice.pool_busy_frac"] = _per(ix.dur(chunks), capacity) if chunks else None
    dil = ix.by_name["lattice.dilation_times_block"]
    out["lattice.dilation.ns_per_point"] = _per(ix.dur(dil), sum(sp[7]["points"] for sp in dil if sp[7]), 1e9)

    # disc sums: exact disc counts for every kernel call that enumerated one
    kernels = [sp for name in DIRECT_KERNELS for sp in ix.by_name[name]
               if sp[7] and not ix.under(sp, DIRECT_KERNELS)]
    disc = sum(disc_count(sp[7]["radius"]) for sp in kernels)
    kernel_ids = {sp[0] for sp in kernels}
    kernel_maps = [sp for sp in maps if any(a[0] in kernel_ids for a in ix.ancestors(sp))]
    kernel_chunks = [c for sp in kernel_maps for c in ix.children[sp[0]] if c[1] == "lattice.chunk"]
    out["lattice.disc_yield"] = _per(disc, sum(c[7]["points"] for c in kernel_chunks))
    out["zeta.direct.points_per_s"] = _per(disc, ix.dur(kernels))
    if kernel_chunks and dil:
        weight = sum(ix.self_time(c, exclude=("lattice.dilation_times_block",)) for c in kernel_chunks)
        out["zeta.weight.ns_per_point"] = _per(weight, disc, 1e9)

    specs = ix.by_name["lattice.build_spectrum"]
    if maps:
        out["lattice.spectrum.self_s"] = _mean([ix.self_time(sp, ("lattice.map_box_chunks",)) for sp in specs])
        out["lattice.count.self_s"] = _mean([ix.self_time(sp, ("lattice.map_box_chunks",))
                                             for sp in ix.by_name["lattice.count_points"]])
    out["lattice.spectrum.entries"] = sum(sp[7]["entries"] for sp in specs if sp[7]) or None

    cont = [sp for name in CONTINUED_KERNELS for sp in ix.by_name[name]]
    uig = ix.by_name["special.upper_incomplete_gamma"]
    out["zeta.continued.calls"] = len(cont) or None
    out["zeta.continued.self_us"] = _mean([1e6 * ix.self_time(sp) for sp in cont])
    out["zeta.continued.rings.mean"] = _mean([sp[7]["rings"] for sp in cont if sp[7]])
    if uig:
        cont_ids = {sp[0] for sp in cont}
        out["zeta.continued.uig_per_call"] = _per(sum(1 for sp in uig if sp[4] in cont_ids), len(cont))
    out["zeta.spectrum_sum.self_ms"] = _mean([1e3 * ix.self_time(sp)
                                             for sp in ix.by_name["zeta.hlawka_from_spectrum"]])

    out["special.uig.calls"] = len(uig) or None
    for key, name in (("uig", "upper_incomplete_gamma"), ("gamma", "gamma"), ("zeta", "riemann_zeta")):
        out[f"special.{key}.us_per_call"] = _mean([1e6 * (sp[3] - sp[2]) for sp in ix.by_name[f"special.{name}"]])
    special = [sp for sp in spans if sp[1].startswith("special.")]
    if special:
        out["special.self_share"] = _per(sum(ix.self_time(sp) for sp in special), ix.dur(mains))

    out["fourier.coeffs.self_ms"] = _mean([1e3 * ix.self_time(sp) for sp in ix.by_name["fourier.fourier_coeffs"]])
    perron = ix.by_name["funceq.perron_count_approx"]
    if specs or ix.by_name["lattice.count_points"]:
        out["funceq.perron.self_s"] = _mean([ix.self_time(sp, ("lattice.build_spectrum", "lattice.count_points"))
                                             for sp in perron])
    out["funceq.perron.lobes"] = sum(sp[7]["lobes"] for sp in perron if sp[7]) or None
    checks = [sp for name, group in ix.by_name.items() if name.startswith("funceq.check_") for sp in group]
    out["funceq.check.self_s"] = _mean([ix.self_time(sp) for sp in checks])
    return out


def build_seconds(spans) -> float:
    """Time in parse_shape and act, outermost calls only."""
    ix = SpanIndex(spans)
    names = ("shapes.parse_shape", "shapes.act")
    return ix.dur([sp for name in names for sp in ix.by_name[name] if not ix.under(sp, names)])
