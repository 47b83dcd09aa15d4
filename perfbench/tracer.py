"""Outside-in layer tracing of one ``qcert verify`` call.

The tracer wraps the public functions of each ``src/qcert`` module from
the outside; qcert itself carries no spans.  Two traps are handled:

* ``verify``, ``cli`` and ``genfun`` import several functions by name
  (``closed_form``, ``tally``, ``lerch_sum``, ...), so every wrapper is
  installed on each loaded ``qcert`` module attribute that holds the
  original object, not only in the defining module;
* the enumeration sweeps are reached through
  ``combinatorics._TALLY_TABLE``, which keeps the original function
  objects, so a sweep's time is the time of the ``tally`` / ``raw_tally``
  / ``pair_sweep`` / ``pair_profile`` spans during which that sweep's
  ``cache_info().misses`` rose.

Spans form a stack.  A layer's self time is the time during which the
innermost open span belongs to that layer, so the self times of all
layers add up to the root span.  A function's ``s`` is its inclusive
time, counted once for recursive calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("verify", "genfun", "series", "combinatorics")
ENGINES = ("SERIES", "ENUM", "BOTH", "MIXED", "FORM")
DOMAINS = ("rat", "dual_rat", "laurent", "dual_laurent", "xpoly")
_DOMAIN_OF_RING = {
    "rational": "rat",
    "dual[rational]": "dual_rat",
    "laurent": "laurent",
    "dual[laurent]": "dual_laurent",
}

GENFUN_CACHED = ("nt_diff_gf", "closed_form", "rank_gf")
GENFUN_PLAIN = ("nt_diff_combo", "thmain_check", "genovpair_series")
BUILDERS = ("pochhammer_infinite", "pochhammer_finite", "bracket_infinite", "lerch_sum")
KERNELS = {"mul": "__mul__", "invert": "invert", "mul_binomial": "mul_binomial",
           "div_binomial": "div_binomial"}
TALLIES = ("tally", "raw_tally")
# sweep -> how many objects one call at weight n enumerated, read off its result
SWEEPS = {
    "partition_sweep": lambda r: sum(r["rank_count"].values()),
    "overpartition_sweep": lambda r: sum(r["rank_count"].values()),
    "distinct_odd_sweep": lambda r: sum(r["m2_count"].values()),
    "pair_sweep": lambda r: sum(r["rank_count"].values()),
    "pair_profile": lambda r: sum(r.values()),
}


def _coeff_ops(kernel: str, args) -> int:
    """Coefficient multiply-adds a kernel call performs at most, computed
    from the orders of its operands (zero coefficients are skipped by the
    kernels, so this is an upper bound)."""
    s = args[0]
    if kernel == "mul":
        n = min(s.order, getattr(args[1], "order", -1))
        return (n + 1) * (n + 2) // 2 if n >= 0 else 0
    if kernel == "invert":
        return s.order * (s.order + 1) // 2
    m = args[2] if len(args) > 2 else 0
    return s.order + 1 if m <= 0 else max(0, s.order - m + 1)


def _domain(ring) -> str:
    name = getattr(ring, "name", "")
    return "xpoly" if name.startswith("xpoly") else _DOMAIN_OF_RING.get(name, name)


def _numbers(value):
    """Every numeric (int or Fraction) leaf of a genfun result."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        yield value
    elif hasattr(value, "coeffs"):  # QSeries
        for c in value.coeffs:
            yield from _numbers(c)
    elif hasattr(value, "lhs") and hasattr(value, "rhs"):  # IdentityReport
        yield from _numbers(value.lhs)
        yield from _numbers(value.rhs)
    elif hasattr(value, "deriv"):  # DualScalar
        yield from _numbers(value.value)
        yield from _numbers(value.deriv)
    elif hasattr(value, "items"):  # LaurentPoly, XPoly
        for _, c in value.items():
            yield from _numbers(c)


class Tracer:
    """Span recorder for one verify call inside one worker process."""

    def __init__(self):
        self._stack: list[list] = []  # [name, layer, start, child time]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.engine_s: defaultdict = defaultdict(float)
        self.kernel_s: defaultdict = defaultdict(float)  # (kernel, domain)
        self.kernel_ops: Counter = Counter()  # (kernel, domain)
        self.sweep_s: defaultdict = defaultdict(float)
        self.sweep_objects: Counter = Counter()
        self._results: dict = {}  # id -> genfun result, kept alive until scanned
        self._caches: dict = {}  # metric prefix -> (lru function, info at install)

    # -- spans ---------------------------------------------------------------

    def _push(self, name: str, layer: str):
        self.calls[name] += 1
        self._depth[name] += 1
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def _pop(self) -> float:
        end = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += dur
        return dur

    def _wrap(self, fn, name: str, layer: str, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            tracer._push(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._pop()
            if post:
                post(args, out, dur, state)
            return out

        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call `fn` as the root span of the verify layer."""
        self._push("verify.run", "verify")
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop()

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the public functions of every qcert layer in place."""
        from qcert import combinatorics, genfun, series, verify

        modules = [m for n, m in sys.modules.items() if n == "qcert" or n.startswith("qcert.")]

        def patch(module, attr, wrapper_for):
            orig = getattr(module, attr)
            wrapped = wrapper_for(orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        def engine_post(args, out, dur, state):
            self.engine_s[args[0].engines] += dur

        patch(verify, "run_check",
              lambda f: self._wrap(f, "verify.run_check", "verify", post=engine_post))

        def keep_result(args, out, dur, state):
            self._results[id(out)] = out

        for attr in GENFUN_CACHED + GENFUN_PLAIN:
            orig = getattr(genfun, attr)
            if attr in GENFUN_CACHED:
                self._caches[f"genfun.{attr}"] = (orig, orig.cache_info())
            patch(genfun, attr,
                  lambda f, a=attr: self._wrap(f, f"genfun.{a}", "genfun", post=keep_result))

        for attr in BUILDERS:
            patch(series, attr, lambda f, a=attr: self._wrap(f, f"series.{a}", "series"))

        def kernel_post(kernel):
            def post(args, out, dur, state):
                key = (kernel, _domain(args[0].ring))
                self.kernel_s[key] += dur
                self.kernel_ops[key] += _coeff_ops(kernel, args)
            return post

        for kernel, method in KERNELS.items():
            orig = getattr(series.QSeries, method)
            setattr(series.QSeries, method,
                    self._wrap(orig, f"series.{kernel}", "series", post=kernel_post(kernel)))

        sweeps = {name: getattr(combinatorics, name) for name in SWEEPS}
        for name, fn in sweeps.items():
            self._caches[f"combinatorics.{name}"] = (fn, fn.cache_info())

        def misses():
            return {name: fn.cache_info().misses for name, fn in sweeps.items()}

        def sweep_post(n_index):
            def post(args, out, dur, before):
                after = misses()
                for name, fn in sweeps.items():
                    if after[name] > before[name]:
                        self.sweep_s[name] += dur
                        # a second call at the same weight is a cache hit
                        self.sweep_objects[name] += SWEEPS[name](fn(args[n_index]))
            return post

        # (attribute, position of the weight n among its arguments)
        for attr, n_index in (("tally", 1), ("raw_tally", 1), ("pair_sweep", 0), ("pair_profile", 0)):
            patch(combinatorics, attr,
                  lambda f, a=attr, i=n_index: self._wrap(
                      f, f"combinatorics.{a}", "combinatorics",
                      pre=lambda args: misses(), post=sweep_post(i)))

    # -- metrics ---------------------------------------------------------------

    def _cache_delta(self, prefix: str):
        fn, start = self._caches[prefix]
        info = fn.cache_info()
        return info.hits - start.hits, info.misses - start.misses

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name (units in BENCHMARK.json)."""
        m: dict = {}
        m["verify.run_check.calls"] = self.calls["verify.run_check"]
        m["verify.run_check.s"] = self.inclusive["verify.run_check"]
        for engine in ENGINES:
            m[f"verify.engine.{engine}.s"] = self.engine_s[engine]
        for attr in GENFUN_CACHED:
            name = f"genfun.{attr}"
            hits, miss = self._cache_delta(name)
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.misses"] = miss
            m[f"{name}.s"] = self.inclusive[name]
            m[f"{name}.hit_ratio"] = hits / (hits + miss) if hits + miss else 0.0
        for attr in GENFUN_PLAIN:
            m[f"genfun.{attr}.calls"] = self.calls[f"genfun.{attr}"]
            m[f"genfun.{attr}.s"] = self.inclusive[f"genfun.{attr}"]
        for attr in BUILDERS:
            m[f"series.{attr}.calls"] = self.calls[f"series.{attr}"]
            m[f"series.{attr}.s"] = self.inclusive[f"series.{attr}"]
        for kernel in KERNELS:
            m[f"series.{kernel}.calls"] = self.calls[f"series.{kernel}"]
            m[f"series.{kernel}.s"] = self.inclusive[f"series.{kernel}"]
            m[f"series.{kernel}.coeff_ops"] = sum(
                self.kernel_ops[(kernel, d)] for d in DOMAINS)
        for domain in DOMAINS:
            m[f"rings.{domain}.kernel_s"] = sum(self.kernel_s[(k, domain)] for k in KERNELS)
            m[f"rings.{domain}.coeff_ops"] = sum(self.kernel_ops[(k, domain)] for k in KERNELS)
        nonzero = den1 = 0
        for result in self._results.values():
            for c in _numbers(result):
                if c:
                    nonzero += 1
                    den1 += isinstance(c, Fraction) and c.denominator == 1
        m["rings.fraction_den1_share"] = den1 / nonzero if nonzero else 0.0
        for attr in TALLIES:
            m[f"combinatorics.{attr}.calls"] = self.calls[f"combinatorics.{attr}"]
            m[f"combinatorics.{attr}.s"] = self.inclusive[f"combinatorics.{attr}"]
        for name in SWEEPS:
            m[f"combinatorics.{name}.misses"] = self._cache_delta(f"combinatorics.{name}")[1]
            m[f"combinatorics.{name}.s"] = self.sweep_s[name]
            m[f"combinatorics.{name}.objects"] = self.sweep_objects[name]
        sweep_s = sum(self.sweep_s.values())
        m["combinatorics.objects_per_s"] = (
            sum(self.sweep_objects.values()) / sweep_s if sweep_s else 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
        return m
