"""Per-layer tracing of chainprofile from outside the package.

`Tracer.install()` wraps the public functions listed in FUNCTIONS by
rebinding them in every `chainprofile.*` module namespace that holds them,
and the methods listed in METHODS on the classes that define them.  Each
call opens a span (name, start, end, parent span); when the span closes its
duration and self time (duration minus the time its direct child spans
cover) are folded into per-name totals, so memory stays bounded however
many calls a workload makes.  Spans are also totalled per (name, parent
name), which is how pool builds (`reachable_chains` under
`minimal_filling`) are told apart from cycle enumeration.

Installing fails with `TracerError` when a listed function or method no
longer exists or is not bound anywhere, so a rename cannot silently turn a
layer's numbers into zeros.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute); the span name is the metric prefix
FUNCTIONS = {
    "skeleton.build_chain": ("chainprofile.skeleton", "build_chain"),
    "skeleton.boundary": ("chainprofile.skeleton", "boundary"),
    "skeleton.translate": ("chainprofile.skeleton", "translate"),
    "skeleton.is_subchain": ("chainprofile.skeleton", "is_subchain"),
    "skeleton.is_connected": ("chainprofile.skeleton", "is_connected"),
    "skeleton.chains_equal": ("chainprofile.skeleton", "chains_equal"),
    "enumeration.reachable_chains": ("chainprofile.enumeration", "reachable_chains"),
    "enumeration.connected_cycles": ("chainprofile.enumeration",
                                     "connected_cycles_up_to_action"),
    "profiles.minimal_filling": ("chainprofile.profiles", "minimal_filling"),
    "profiles.finite_profile": ("chainprofile.profiles", "finite_profile"),
    "profiles.psi_table": ("chainprofile.profiles", "psi_table"),
    "cache.verify_profile": ("chainprofile.cache", "verify_profile_entry"),
    "cache.verify_fv": ("chainprofile.cache", "verify_fv_entry"),
    "inputs.load_input": ("chainprofile.inputs", "load_input"),
    "inputs.load_example": ("chainprofile.inputs", "load_example"),
    "inputs.parse_chain": ("chainprofile.inputs", "parse_chain"),
    "cli.main": ("chainprofile.cli", "main"),
}

# span name -> (module, base class, method); wrapped on the base class and on
# every subclass in the module that defines its own version
METHODS = {
    "words.is_trivial": ("chainprofile.words", "WordOracle", "is_trivial"),
    "words.normalize": ("chainprofile.words", "WordOracle", "normalize"),
    "cache.get": ("chainprofile.cache", "ResultCache", "get"),
    "cache.put": ("chainprofile.cache", "ResultCache", "put"),
    "cache.evict": ("chainprofile.cache", "ResultCache", "evict"),
}


class TracerError(Exception):
    """A function the tracer must wrap is missing or never bound."""


class _Span:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


def _size(reached):
    return sum(len(v) for v in reached.values())


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = {}       # name -> calls
        self.self_s = {}      # name -> self seconds
        self.under = {}       # (name, parent name) -> [calls, inclusive seconds]
        self.counts = {}      # outcome counters filled by the hooks below
        self._hooks = {
            "words.is_trivial": self._verdict,
            "enumeration.reachable_chains": self._reached,
            "enumeration.connected_cycles": self._cycles,
            "cache.get": self._hit,
            "cache.verify_profile": self._verified,
            "cache.verify_fv": self._verified,
        }

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _verdict(self, result, parent):
        self.count("words.verdict." + result.value)

    def _reached(self, result, parent):
        n = _size(result)
        self.count("enumeration.reached", n)
        if parent is not None:
            self.count(f"enumeration.reached_under.{parent}", n)

    def _cycles(self, result, parent):
        self.count("enumeration.cycles", _size(result))

    def _hit(self, result, parent):
        if result is not None:
            self.count("cache.hits")

    def _verified(self, result, parent):
        if not result:
            self.count("cache.verify.failed")

    def _wrap(self, name, fn):
        stack = self.stack
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - span.child_s
                pname = parent.name if parent is not None else None
                slot = self.under.setdefault((name, pname), [0, 0.0])
                slot[0] += 1
                slot[1] += dur
                if parent is not None:
                    parent.child_s += dur
            if hook is not None:
                hook(result, parent.name if parent is not None else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function and method.

        All targets are resolved before anything is rebound, so a missing
        one raises TracerError and leaves the package untouched.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "chainprofile" or n.startswith("chainprofile.")) and m]
        functions = []
        for name, (modname, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                raise TracerError(f"{modname}.{attr} no longer exists")
            homes = [(m, key) for m in modules
                     for key, value in vars(m).items() if value is fn]
            if not homes:
                raise TracerError(f"{modname}.{attr} is not bound in any module")
            functions.append((name, fn, homes))
        methods = []
        for name, (modname, clsname, attr) in METHODS.items():
            base = getattr(sys.modules.get(modname), clsname, None)
            if not isinstance(base, type):
                raise TracerError(f"{modname}.{clsname} no longer exists")
            classes = [c for c in vars(sys.modules[modname]).values()
                       if isinstance(c, type) and issubclass(c, base)
                       and callable(vars(c).get(attr))]
            if not classes:
                raise TracerError(f"{modname}.{clsname}.{attr} no longer exists")
            methods.append((name, attr, classes))

        for name, fn, homes in functions:
            wrapped = self._wrap(name, fn)
            for m, key in homes:
                setattr(m, key, wrapped)
        for name, attr, classes in methods:
            for cls in classes:
                setattr(cls, attr, self._wrap(name, vars(cls)[attr]))

    def metrics(self):
        """Per-layer metrics by name; values are counts or seconds."""
        calls = lambda n: self.calls.get(n, 0)
        own = lambda n: self.self_s.get(n, 0.0)
        c = lambda k: self.counts.get(k, 0)
        out = {}
        for n in ("words.is_trivial", "words.normalize"):
            out[n + ".calls"] = calls(n)
            out[n + ".self_s"] = own(n)
        for v in ("trivial", "nontrivial", "undecided"):
            out["words.verdict." + v] = c("words.verdict." + v)
        for f in ("build_chain", "boundary", "translate", "is_subchain", "is_connected"):
            out[f"skeleton.{f}.calls"] = calls("skeleton." + f)
            out[f"skeleton.{f}.self_s"] = own("skeleton." + f)
        out["skeleton.chains_equal.calls"] = calls("skeleton.chains_equal")

        rc = "enumeration.reachable_chains"
        out[rc + ".calls"] = calls(rc)
        out[rc + ".self_s"] = own(rc)
        out["enumeration.reached"] = c("enumeration.reached")
        out["enumeration.cycles"] = c("enumeration.cycles")
        enum_reached = c("enumeration.reached_under.enumeration.connected_cycles")
        out["enumeration.cycle_yield"] = (c("enumeration.cycles") / enum_reached
                                          if enum_reached else 0.0)

        mf = "profiles.minimal_filling"
        out[mf + ".calls"] = calls(mf)
        out[mf + ".self_s"] = own(mf)
        pool = self.under.get((rc, mf), [0, 0.0])
        out["profiles.pool_builds"] = pool[0]
        out["profiles.pool_build_s"] = pool[1]
        out["profiles.pool_reached"] = c(f"enumeration.reached_under.{mf}")
        out["profiles.finite_profile.calls"] = calls("profiles.finite_profile")
        out["profiles.finite_profile.self_s"] = own("profiles.finite_profile")
        out["profiles.psi_table.self_s"] = own("profiles.psi_table")

        gets = calls("cache.get")
        out["cache.get.calls"] = gets
        out["cache.get.self_s"] = own("cache.get")
        out["cache.hits"] = c("cache.hits")
        out["cache.hit_ratio"] = c("cache.hits") / gets if gets else 0.0
        out["cache.put.calls"] = calls("cache.put")
        out["cache.put.self_s"] = own("cache.put")
        verify = ("cache.verify_profile", "cache.verify_fv")
        out["cache.verify.calls"] = sum(calls(n) for n in verify)
        out["cache.verify.self_s"] = sum(own(n) for n in verify)
        out["cache.verify.failed"] = c("cache.verify.failed")
        out["cache.evict.calls"] = calls("cache.evict")

        out["inputs.load.self_s"] = own("inputs.load_input") + own("inputs.load_example")
        out["inputs.parse_chain.calls"] = calls("inputs.parse_chain")
        out["inputs.parse_chain.self_s"] = own("inputs.parse_chain")
        out["cli.main.calls"] = calls("cli.main")
        out["cli.main.self_s"] = own("cli.main")
        return out
