"""Span tracer for the benchmark's traced runs.

The tracer wraps the library's module-level functions from outside, in every
module namespace that imported them (``wick.diagonal_partition_profiles`` as
well as ``partitions.diagonal_partition_profiles``), plus a few methods that
run once per partition.  Nothing under ``src/`` changes.

Each wrapped call opens a frame; on exit its self time (duration minus the
time of its wrapped children) is added to the function's totals.  Calls made
once per partition or per term are only aggregated; the rest are also kept as
spans ``(id, parent id, job, name, start, end)`` in memory and written when
the run ends.  Enumeration generators are timed per ``next()``, and their
yields are counted.  ``Poly`` arithmetic and the small vector helpers of
``_linalg`` (``dot``, ``mat_vec``, ``mat_mul``, ...) are not wrapped: the
wrapper would cost as much as the call, so their time stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("scalars", "partitions", "fock", "wick", "orthopoly", "levy", "_linalg", "cli")

UNWRAPPED = {
    "_linalg": {"dot", "mat_vec", "mat_mul", "transpose", "identity", "zeros", "mat_from_rows", "is_symmetric"},
}

METHODS = {
    "scalars.DeformationParams": ("monomial",),
    "partitions.SetPartition": (
        "roles", "singletons", "crossings", "nestings", "covered_singletons",
        "singletons_after_pairs", "restricted_crossings", "restricted_nestings",
    ),
    "partitions.DiagonalPartition": ("weight_exponents", "conjugate_blocks"),
}

# called once per partition, per term or per quadrature node: totals only
# (so are the METHODS)
AGGREGATE_ONLY = {
    "scalars.qt_number", "scalars.parse_rational", "scalars.render_rational", "scalars.scalar_eq",
    "levy.levy_cumulant", "fock.sym_inner_words", "partitions.render_partition",
    "orthopoly.mp_density", "orthopoly.sech_density", "orthopoly.qpochhammer",
}

FOCK_APPLY = ("fock.creation_apply", "fock.annihilation_apply", "fock.gauge_apply")

ORTHOPOLY_EXACT = {
    "jacobi_hermite", "jacobi_poisson", "jacobi_qmp", "jacobi_sech", "jacobi_discrete_qhermite",
    "moments_from_jacobi", "polys_from_jacobi", "norm_squares_from_jacobi",
}

# stat slots: calls, generator yields, self seconds, per-function extra
# (peak vector size for FOCK_APPLY, rows for ldlt_classify)
CALLS, YIELDED, SELF, EXTRA = range(4)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.job = None
        self.job_self = 0.0

    # -- frames ---------------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0.0, 0]
        return st

    def enter(self, name, record):
        parent = self.stack[-1][4] if self.stack else None
        span_id = None
        if record:
            span_id = self.next_id
            self.next_id += 1
        # [name, start, child time, record, nearest recorded id, parent id]
        self.stack.append([name, perf_counter(), 0.0, record, span_id if record else parent, parent])

    def exit(self):
        end = perf_counter()
        name, start, child, record, span_id, parent = self.stack.pop()
        dur = end - start
        self_time = dur - child
        self._stat(name)[SELF] += self_time
        self.job_self += self_time
        if self.stack:
            self.stack[-1][2] += dur
        if record:
            self.spans.append((span_id, parent, self.job, name, start, end))

    # -- jobs -----------------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run fn traced; return (output, wall seconds, summed layer self time)."""
        self.job = job_id
        self.job_self = 0.0
        self.active = True
        start = perf_counter()
        self.stack.append(["job", start, 0.0, True, self.next_id, None])
        self.next_id += 1
        try:
            out = fn()
        finally:
            end = perf_counter()
            _, _, _, _, span_id, _ = self.stack.pop()
            self.spans.append((span_id, None, job_id, "job", start, end))
            self.active = False
        return out, end - start, self.job_self

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, fn, name, record):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer._stat(name)[CALLS] += 1
                return _TracedGen(tracer, name, fn(*args, **kwargs))
            return gen_wrapper

        if name in FOCK_APPLY:
            def hook(st, args, out):
                st[EXTRA] = max(st[EXTRA], len(out.terms))
        elif name == "_linalg.ldlt_classify":
            def hook(st, args, out):
                st[EXTRA] += len(args[0])
        else:
            hook = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._stat(name)
            st[CALLS] += 1
            tracer.enter(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(st, args, out)
            return out
        return wrapper

    def install(self):
        """Wrap every public function of each imported layer module, in every
        diagfock namespace that holds it, and the per-partition methods."""
        homes = {layer: sys.modules[f"diagfock.{layer}"] for layer in LAYERS if f"diagfock.{layer}" in sys.modules}
        wrappers = {}
        for layer, mod in homes.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in UNWRAPPED.get(layer, ()):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, name not in AGGREGATE_ONLY)
        namespaces = [sys.modules["diagfock"]] + list(homes.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(homes[layer], cls_name)
            for meth in methods:
                setattr(cls, meth, self._wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", False))

    @staticmethod
    def partition_caches():
        """The lru_caches that hold enumerated partitions (unwrapped)."""
        from diagfock import levy, partitions

        profiles = partitions.__dict__["diagonal_partition_profiles"]
        return getattr(profiles, "__wrapped__", profiles), levy.__dict__["_diag_partitions_list"]

    def cache_counters(self):
        """Hits and misses of the partition caches since they were last cleared."""
        profiles, diag_list = self.partition_caches()
        return {
            "partitions.profile_cache.hits": profiles.cache_info().hits,
            "partitions.profile_cache.misses": profiles.cache_info().misses,
            "levy.partition_cache.misses": diag_list.cache_info().misses,
        }

    def dump(self):
        return {"stats": self.stats, "spans": self.spans}


class _TracedGen:
    __slots__ = ("tracer", "name", "gen")

    def __init__(self, tracer, name, gen):
        self.tracer, self.name, self.gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        st = tracer._stat(self.name)
        tracer.enter(self.name, False)
        try:
            value = next(self.gen)
        finally:
            tracer.exit()
        st[YIELDED] += 1
        return value


# -- per-layer metrics ----------------------------------------------------------------


def merge_stats(into, stats):
    for name, st in stats.items():
        cur = into.get(name)
        if cur is None:
            into[name] = list(st)
            continue
        cur[CALLS] += st[CALLS]
        cur[YIELDED] += st[YIELDED]
        cur[SELF] += st[SELF]
        cur[EXTRA] = max(cur[EXTRA], st[EXTRA]) if name in FOCK_APPLY else cur[EXTRA] + st[EXTRA]


def layer_metrics(stats, caches):
    """The per-layer metric values (without units) from merged stats."""

    def total(pred, slot):
        return sum(st[slot] for name, st in stats.items() if pred(name))

    def one(name, slot):
        return stats.get(name, [0, 0, 0.0, 0])[slot]

    def in_layer(layer):
        return lambda name: name.split(".", 1)[0] == layer

    out = {}
    for layer in ("partitions", "wick", "levy", "fock", "_linalg"):
        out[f"{layer.lstrip('_')}.self_s"] = total(in_layer(layer), SELF)
    out["partitions.calls"] = total(in_layer("partitions"), CALLS)
    out["partitions.yielded"] = total(in_layer("partitions"), YIELDED)
    out.update(caches)
    for fn in ("cumulants_to_moments", "moments_to_cumulants", "gaussian_wick", "full_wick", "word_vacuum_formula"):
        out[f"wick.{fn}.self_s"] = one(f"wick.{fn}", SELF)
    for fn in ("levy_moment", "levy_moment_s_poly", "cumulant_functional", "moment_functional"):
        out[f"levy.{fn}.self_s"] = one(f"levy.{fn}", SELF)
    out["levy.levy_cumulant.calls"] = one("levy.levy_cumulant", CALLS)
    out["scalars.monomial.calls"] = one("scalars.DeformationParams.monomial", CALLS)
    out["scalars.monomial.self_s"] = one("scalars.DeformationParams.monomial", SELF)
    out["scalars.qt_number.calls"] = one("scalars.qt_number", CALLS)
    is_orthopoly = in_layer("orthopoly")
    out["orthopoly.exact.self_s"] = total(lambda n: is_orthopoly(n) and n.split(".")[1] in ORTHOPOLY_EXACT, SELF)
    out["orthopoly.float.self_s"] = total(lambda n: is_orthopoly(n) and n.split(".")[1] not in ORTHOPOLY_EXACT, SELF)
    out["linalg.mat_pow_entries.self_s"] = one("_linalg.mat_pow_entries", SELF)
    out["fock.apply.calls"] = total(lambda n: n in FOCK_APPLY, CALLS)
    out["fock.apply.self_s"] = total(lambda n: n in FOCK_APPLY, SELF)
    out["fock.apply.peak_terms"] = max([stats[n][EXTRA] for n in FOCK_APPLY if n in stats] or [0])
    out["fock.sym_inner_words.calls"] = one("fock.sym_inner_words", CALLS)
    out["fock.sym_inner_words.self_s"] = one("fock.sym_inner_words", SELF)
    out["fock.deformed_inner.self_s"] = one("fock.deformed_inner", SELF)
    out["fock.symmetrizer_matrix.self_s"] = one("fock.symmetrizer_matrix", SELF)
    out["linalg.ldlt_classify.self_s"] = one("_linalg.ldlt_classify", SELF)
    out["linalg.ldlt_classify.rows"] = one("_linalg.ldlt_classify", EXTRA)
    out["linalg.solve_linear.self_s"] = one("_linalg.solve_linear", SELF)
    return out
