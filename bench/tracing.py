"""Spans and counters around calls into the cstarpres layers.

A span (name, start, end, parent) is recorded around every call of a
wrapped function and kept in compact in-memory arrays; self times are
derived from them when the run ends.  Kernel functions that run hundreds
of thousands of times per pass get a call counter instead of a span, so
their time shows up as self time of the calling layer.

A function imported by name (`from .terms import star`) has one binding
per importing module.  `install` rebinds every such binding in every
cstarpres module, not only the one in the home module, and
`binding_mismatches` checks the result against cProfile's own per-code
call counts.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("exact", "terms", "parser", "presentation", "fcalc", "bounds",
           "tietze", "scripts", "repsearch")

# Kernel modules: their public functions are counted, not spanned.
COUNTED_MODULES = ("exact", "terms")

# Names whose recursive inner calls are folded into the outermost span.
OUTERMOST_ONLY = ("repsearch.eval_term",)


class Tracer:
    """Span store plus counters; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []    # every call, spans or not
        self.active: list[int] = []   # open spans per name
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.nfev = 0                 # summed least_squares evaluations
        self.cert_none = 0            # search_certificate calls giving None
        self.originals: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.active.append(0)
        return i

    def open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around an item or set-up."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers -------------------------------------------------------

    def spanned(self, name: str, fn, on_result=None):
        sid = self.name_id(name)
        outermost = name in OUTERMOST_ONLY
        self.originals[name] = fn
        calls, active = self.calls, self.active

        def wrapper(*args, **kwargs):
            calls[sid] += 1
            if outermost and active[sid]:
                return fn(*args, **kwargs)
            idx = self.open(sid)
            active[sid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[sid] -= 1
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counted(self, name: str, fn, only_inside: str | None = None):
        cid = self.name_id(name)
        self.originals[name] = fn
        calls, active = self.calls, self.active
        if only_inside is None:
            def wrapper(*args, **kwargs):
                calls[cid] += 1
                return fn(*args, **kwargs)
        else:
            gate = self.name_id(only_inside)

            def wrapper(*args, **kwargs):
                if active[gate]:
                    calls[cid] += 1
                return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    # -- results --------------------------------------------------------

    def layer_table(self) -> dict:
        """name -> {calls, spans, total_s, self_s} from the recorded spans."""
        n_names = len(self.names)
        total = [0] * n_names
        child = [0] * n_names
        spans = [0] * n_names
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_of = [0] * len(names)
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child_of[p] += dur
        for i in range(len(names)):
            sid = names[i]
            spans[sid] += 1
            total[sid] += ends[i] - starts[i]
            child[sid] += child_of[i]
        out = {}
        for sid, name in enumerate(self.names):
            out[name] = {"calls": self.calls[sid], "spans": spans[sid],
                         "total_s": total[sid] / 1e9,
                         "self_s": (total[sid] - child[sid]) / 1e9}
        return out


def _public_functions(mod) -> list[tuple[str, types.FunctionType]]:
    return [(name, obj) for name, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == mod.__name__ and not name.startswith("_")]


def install(tracer: Tracer) -> None:
    """Wrap every cstarpres module's binding of every public function,
    plus the NF product, XS construction, Coeff-to-complex conversion,
    numpy's eigh and scipy's least_squares polish."""
    import numpy.linalg
    import scipy.optimize

    mods = {m: importlib.import_module("cstarpres." + m) for m in MODULES}
    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for name, fn in _public_functions(mod):
            label = "%s.%s" % (short, name)
            if short in COUNTED_MODULES:
                w = tracer.counted(label, fn)
            elif label == "tietze.search_certificate":
                w = tracer.spanned(label, fn, on_result=_count_none(tracer))
            else:
                w = tracer.spanned(label, fn)
            wrapped[id(fn)] = w
    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            w = wrapped.get(id(obj))
            if w is not None:
                setattr(mod, name, w)

    terms, exact = mods["terms"], mods["exact"]
    terms.NF.__mul__ = tracer.spanned("terms.NF.mul", terms.NF.__mul__)
    exact.XS.__init__ = tracer.counted("exact.XS.new", exact.XS.__init__)
    exact.Coeff.__complex__ = tracer.counted("exact.Coeff.complex",
                                             exact.Coeff.__complex__)
    numpy.linalg.eigh = tracer.counted("repsearch.eigh", numpy.linalg.eigh,
                                       only_inside="repsearch.search_feasible")

    def add_nfev(res):
        tracer.nfev += int(res.nfev)

    # repsearch imports least_squares inside the restart loop, so the
    # module attribute is the binding it sees.
    scipy.optimize.least_squares = tracer.spanned(
        "repsearch.polish", scipy.optimize.least_squares, on_result=add_nfev)


def _count_none(tracer: Tracer):
    def hook(result):
        if result is None:
            tracer.cert_none += 1
    return hook


def binding_mismatches(tracer: Tracer, before: list[int], stats: dict) -> dict:
    """Wrapped cstarpres functions whose wrapper saw fewer or more calls
    than cProfile counted for the original code since `before`.

    `stats` is `cProfile.Profile.stats` after `create_stats()`.
    """
    nc_by_code = {key: v[1] for key, v in stats.items()}
    out = {}
    for name, fn in tracer.originals.items():
        if not getattr(fn, "__module__", "").startswith("cstarpres"):
            continue
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = nc_by_code.get(key, 0)
        seen = tracer.calls[tracer.name_id(name)] - before[tracer.name_id(name)]
        if profiled != seen:
            out[name] = {"wrapper": seen, "cprofile": profiled}
    return out
