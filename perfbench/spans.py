"""Spans around rectsym's public functions, recorded from outside the package.

The package's modules import each other with ``from .x import y``, so a
function is reachable under several module namespaces.  ``Tracer.install``
replaces every reference to a public function in every loaded ``rectsym``
namespace (and the arithmetic methods of ``LaurentPoly``) with a wrapper that
opens a span; ``Tracer.uninstall`` puts the originals back.  Coefficient
arithmetic (``TPoly``, ``Fraction``) is left alone: it is far too fine-grained.

Each span has a trace id (one per benchmark operation), a span id, a parent
span id, a name, a start and an end.  Self time is computed online with a
stack of open spans, so every call counts in the per-function totals.  Only
spans of at least ``MIN_SPAN_S`` are kept individually; a parent always lasts
at least as long as its child, so the kept spans still form a tree.  They stay
in memory until ``write`` is called at the end of the run.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "rectsym"

# The arithmetic of LaurentPoly, which does the polynomial side's work.
POLY_METHODS = (
    "__add__",
    "__sub__",
    "__neg__",
    "scale",
    "__mul__",
    "__rmul__",
    "__pow__",
    "shift",
    "invert_variables",
    "frobenius",
    "map_coefficients",
    "is_symmetric",
    "permuted",
    "leading_monomial",
    "min_exponents",
    "exact_divide",
)


def find_caches():
    """Every ``lru_cache`` defined in a loaded rectsym module, by name."""
    found = {}
    for modname, module in sorted(sys.modules.items()):
        if not _in_package(modname):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == modname:
                found[f"{_short(modname)}.{attr}"] = obj
    return found


def _in_package(modname):
    return modname == PACKAGE or modname.startswith(PACKAGE + ".")


def _short(modname):
    return modname[len(PACKAGE) + 1 :] if modname != PACKAGE else PACKAGE


class CountingDict(dict):
    """A dict that counts ``get`` lookups, for the sweep's Kronecker memo."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


# Shorter spans count in the per-function totals but are not kept one by one.
MIN_SPAN_S = 1e-3


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.terms_out = defaultdict(int)
        self.cache_hits = defaultdict(int)
        self.cache_misses = defaultdict(int)
        self.context_stats = defaultdict(int)
        self.spans = []
        self.next_id = 0
        self.trace_id = 0
        self._contexts = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self):
        self.next_id += 1
        frame = [self.next_id, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if duration >= MIN_SPAN_S or parent is None:
            parent_id = parent[0] if parent is not None else 0
            self.spans.append((self.trace_id, span_id, parent_id, name, start, end))

    def operation(self, name):
        """Root span for one benchmark operation; starts a new trace id."""
        return _Operation(self, name)

    def _wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time spent by the consumer between
            # items is not charged to the generator
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer._open()
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(name, frame)
                        return
                    except BaseException:
                        tracer._close(name, frame)
                        raise
                    tracer._close(name, frame)
                    yield item

            return gen_wrapper
        count_terms = name == "polyring.LaurentPoly.__mul__"

        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame)
            if count_terms:
                tracer.terms_out[name] += len(result.terms)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every public function of the package in every namespace."""
        wrappers = {}
        modules = [(m, mod) for m, mod in sorted(sys.modules.items()) if _in_package(m)]
        for modname, module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{_short(modname)}.{attr}", obj))
        for modname, module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        poly = sys.modules[f"{PACKAGE}.polyring"].LaurentPoly
        for attr in POLY_METHODS:
            orig = poly.__dict__.get(attr)
            if orig is None:
                continue
            key = id(orig)
            if key not in wrappers:
                # __rmul__ is scale: both names share one wrapper and one key
                wrappers[key] = (orig, self._wrap(f"polyring.LaurentPoly.{orig.__name__}", orig))
            self._patches.append((poly, attr, orig))
            setattr(poly, attr, wrappers[key][1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- counters -----------------------------------------------------------

    def harvest(self, caches):
        """Add the hit and miss counts of the given lru caches (call before
        they are cleared)."""
        for name, cache in caches.items():
            info = cache.cache_info()
            self.cache_hits[name] += info.hits
            self.cache_misses[name] += info.misses

    def watch(self, ctx):
        """Count lookups in a SweepContext's Kronecker memo and record its
        cache sizes when the round ends."""
        ctx.kron = CountingDict(ctx.kron)
        self._contexts.append(ctx)
        return ctx

    def collect_contexts(self):
        for ctx in self._contexts:
            self.context_stats["strip_memo"] += len(ctx.chars.strip)
            self.context_stats["pleth_maps"] += len(ctx.maps)
            self.context_stats["kron_lookups"] += ctx.kron.lookups
            self.context_stats["kron_entries"] += len(ctx.kron)
        self._contexts.clear()

    # -- output -------------------------------------------------------------

    def write(self, path, header):
        """Write the kept spans and the per-function totals as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for name in sorted(self.self_s):
                out.write(
                    json.dumps(
                        {
                            "function": name,
                            "calls": self.calls[name],
                            "self_s": self.self_s[name],
                        }
                    )
                    + "\n"
                )
            for trace_id, span_id, parent_id, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "span": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class _Operation:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.trace_id += 1
        self.frame = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame)
        return False
