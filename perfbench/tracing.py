"""Span tracing of the ffmobius layers, installed from outside the library.

A Tracer replaces selected public functions and methods of the package with
wrappers that record one span per call: (name, start, end, parent span, job
id, extra).  Module-level functions are replaced in every ffmobius module
that holds a reference to them, because the modules import each other's
names (`from .hayes import class_of`, `from .correlations import
linear_corr`, ...).  Hot helpers that run millions of times or inside the
kernel's worker threads are only counted, never spanned.

Spans stay in memory; `raw_metrics` reduces them to sums and counts that the
runner adds up over a pass's processes, and `dump` writes them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter, process_time

import numpy as np

# (module, attribute path, span name, layer).  Layers are the package's
# modules, with correlations split into the phase_hist kernel ("kernel") and
# its drivers ("corr"), and sieve.convolve_monic kept apart ("convolve").
SPANNED = [
    ("fields", "get_field", "fields.get_field", "fields"),
    ("fields", "parse_field", "fields.parse_field", "fields"),
    ("polys", "factorize", "polys.factorize", "polys"),
    ("polys", "poly_gcd", "polys.poly_gcd", "polys"),
    ("polys", "mobius", "polys.mobius", "polys"),
    ("laurent", "sample_torus", "laurent.sample_torus", "laurent"),
    ("laurent", "dirichlet_approx", "laurent.dirichlet_approx", "laurent"),
    ("laurent", "LaurentSeries.mul_poly", "laurent.mul_poly", "laurent"),
    ("laurent", "LaurentSeries.parse", "laurent.parse", "laurent"),
    ("sieve", "MonicSieve.__init__", "sieve.build", "sieve"),
    ("sieve", "get_sieve", "sieve.get_sieve", "sieve"),
    ("sieve", "mobius_over_g", "sieve.mu_g", "sieve"),
    ("sieve", "convolve_monic", "sieve.convolve", "convolve"),
    ("quadform", "hankel_matrix", "quadform.hankel_matrix", "quadform"),
    ("quadform", "dilation_matrix", "quadform.dilation_matrix", "quadform"),
    ("quadform", "fq_matmul", "quadform.fq_matmul", "quadform"),
    ("quadform", "rank", "quadform.rank", "quadform"),
    ("correlations", "phase_hist", "kernel.phase_hist", "kernel"),
    ("correlations", "linear_corr", "corr.linear_corr", "corr"),
    ("correlations", "quad_corr", "corr.quad_corr", "corr"),
    ("correlations", "hankel_corr", "corr.hankel_corr", "corr"),
    ("correlations", "exponent_sweep", "corr.exponent_sweep", "corr"),
    ("correlations", "vaughan_pointwise_audit", "vaughan.audit", "corr"),
    ("correlations", "_audit_arrays", "vaughan.audit_arrays", "corr"),
    ("correlations", "vaughan_rhs_arrays", "vaughan.rhs", "corr"),
    ("correlations", "vaughan_decompose", "vaughan.decompose", "corr"),
    ("correlations", "type_one_mean_square", "vaughan.t1ms", "corr"),
    ("hayes", "build_group", "hayes.build_group", "hayes"),
    ("hayes", "HayesGroup.class_weights", "hayes.class_weights", "hayes"),
    ("hayes", "residues_mod", "hayes.residues_mod", "hayes"),
    ("hayes", "l_polynomial", "hayes.lpoly", "hayes"),
    ("hayes", "rh_check", "hayes.rh", "hayes"),
    ("hayes", "euler_inverse_check", "hayes.euler", "hayes"),
    ("hayes", "log_deriv_check", "hayes.logderiv", "hayes"),
    ("hayes", "principal_check", "hayes.principal", "hayes"),
    ("cli", "main", "cli.main", "cli"),
]

# (module, attribute path, counter name): called too often to span.
COUNTED = [
    ("polys", "Poly.__init__", "polys.poly_objects"),
    ("sieve", "poly_times_monics", "sieve.product_calls"),
]

LAYERS = ["fields", "polys", "laurent", "sieve", "convolve", "kernel",
          "quadform", "corr", "hayes", "cli", "bench"]
SPAN_LAYER = {name: layer for _, _, name, layer in SPANNED}
SPAN_LAYER["job"] = "bench"

# The seven module-level caches of the package.
CACHES = [("sieve", "_SIEVES"), ("sieve", "_MU_G"), ("sieve", "_TAILS"),
          ("sieve", "_MONIC_DIGITS"), ("correlations", "_AUDIT_ARRAYS"),
          ("hayes", "_COPRIME_MASKS"), ("fields", "_FIELDS")]

SMALL_CALL = 1024  # kernel calls below this many items count as small


def _modules():
    return {k.rsplit(".", 1)[-1]: m for k, m in sys.modules.items()
            if k.startswith("ffmobius.") and m is not None}


def _resolve(mods, modname, path):
    owner = mods[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def replace_everywhere(modname: str, path: str, make) -> None:
    """Replace modname.path by make(original) wherever the package holds it."""
    mods = _modules()
    owner, attr = _resolve(mods, modname, path)
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(orig, classmethod):
        new = classmethod(make(orig.__func__))
    else:
        new = make(orig)
    setattr(owner, attr, new)
    if not isinstance(owner, type):
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def nbytes(obj, depth: int = 2) -> int:
    """Array bytes held by a cache value (arrays, dicts of arrays, objects)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth == 0:
        return 0
    if isinstance(obj, dict):
        return sum(nbytes(v, depth - 1) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(nbytes(v, depth - 1) for v in vars(obj).values())
    return 0


def cache_stats() -> tuple[int, int]:
    mods = _modules()
    entries = total = 0
    for modname, attr in CACHES:
        cache = getattr(mods[modname], attr)
        entries += len(cache)
        total += sum(nbytes(v) for v in cache.values())
    return entries, total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, extra]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = "setup"
        self.enabled = True
        self._main = threading.get_ident()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the targets of every loaded ffmobius module."""
        loaded = _modules()
        for modname, path, name, _ in SPANNED:
            if modname in loaded:
                replace_everywhere(modname, path, lambda fn, name=name: self._span(name, fn))
        for modname, path, name in COUNTED:
            replace_everywhere(modname, path, lambda fn, name=name: self._counter(name, fn))

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*a, **k):
            if self.enabled:
                counts[name] += 1
            return fn(*a, **k)

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        kernel = name == "kernel.phase_hist"

        def spanned(*a, **k):
            if not self.enabled or threading.get_ident() != self._main:
                return fn(*a, **k)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            cpu0 = process_time() if kernel else 0.0
            rec[1] = perf_counter()
            try:
                out = fn(*a, **k)
            except BaseException:
                rec[2] = perf_counter()
                rec[5] = {"error": True}
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if kernel:
                rec[5] = {"cpu": process_time() - cpu0,
                          "items": int(a[4]) - int(a[3]),
                          "phase": type(a[1]).__name__}
            elif name == "sieve.build":
                sv = a[0]
                rec[5] = {"codes": sv.ctx.q**sv.max_deg}
            return out

        return spanned

    def job_span(self, job_id: str):
        """Context manager marking one benchmark job as the root span."""
        tracer = self

        class _Job:
            def __enter__(self):
                tracer.job = job_id
                self.rec = ["job", 0.0, 0.0, -1, job_id, None]
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append(self.rec)
                self.rec[1] = perf_counter()

            def __exit__(self, *exc):
                self.rec[2] = perf_counter()
                tracer.stack.pop()
                return False

        return _Job()

    # -- reduction ----------------------------------------------------------

    def raw_metrics(self) -> dict:
        """Sums and counts over this process's spans, keyed for summation."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        raw: dict = defaultdict(float)
        for i, (name, t0, t1, parent, job, extra) in enumerate(spans):
            dur = t1 - t0
            self_t = dur - child[i]
            if job == "setup":
                if SPAN_LAYER[name] == "fields" and parent < 0:
                    raw["fields.setup_s"] += dur
                continue
            raw[f"calls:{name}"] += 1
            raw[f"span_s:{name}"] += dur
            raw[f"self_s:{name}"] += self_t
            raw[f"layer_self_s:{SPAN_LAYER[name]}"] += self_t
            if name == "job":
                raw["jobs_wall_s"] += dur
            extra = extra or {}
            if extra.get("error"):
                raw[f"errors:{name}"] += 1
            if name == "kernel.phase_hist" and "items" in extra:
                ph = extra["phase"]
                raw[f"kernel.items:{ph}"] += extra["items"]
                raw[f"kernel.s:{ph}"] += dur
                raw["kernel.cpu_s"] += extra["cpu"]
                raw["kernel.small_calls"] += extra["items"] < SMALL_CALL
            if name == "sieve.build":
                raw["sieve.codes_built"] += extra.get("codes", 0)
            if name == "hayes.rh" and parent >= 0 and spans[parent][0] == "job":
                raw["hayes.characters"] += 1
        for name, n in self.counts.items():
            raw[f"count:{name}"] += n
        return dict(raw)

    def dump(self, path: str, proc: int) -> None:
        with open(path, "a") as fh:
            for i, (name, t0, t1, parent, job, extra) in enumerate(self.spans):
                fh.write(json.dumps({"proc": proc, "id": i, "name": name,
                                     "layer": SPAN_LAYER[name], "start": t0, "end": t1,
                                     "parent": parent, "job": job, "extra": extra}) + "\n")
