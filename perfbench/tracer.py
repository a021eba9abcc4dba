"""Span tracing of gradira's layer functions from outside the package.

A ``Recorder`` wraps each function named in ``TARGETS`` at every binding
inside ``gradira``: names imported by value (``from .forms import
contract``) are separate module attributes that hold the same object, so
each ``gradira.<module>.<name>`` that *is* the original gets the wrapper.
Methods are patched on their class.  ``uninstall`` puts every original
back.

Spans are kept in memory as flat arrays (function id, parent span, start,
end) and written out with ``write_spans`` when the run ends.  The self
time of a span is its duration minus the durations of its direct child
spans; ``summary`` aggregates calls and self time per metric name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (metric name, module, attribute path).  Several targets may share one
# metric name; their calls and self time add up.
TARGETS = [
    ("scalars.diff", "gradira.scalars", "diff"),
    ("scalars.arith", "gradira.scalars", "sadd"),
    ("scalars.arith", "gradira.scalars", "smul"),
    ("scalars.arith", "gradira.scalars", "sdiv"),
    ("scalars.arith", "gradira.scalars", "sneg"),
    ("scalars.as_scalar", "gradira.scalars", "as_scalar"),
    ("forms.wedge", "gradira.forms", "wedge"),
    ("forms.contract", "gradira.forms", "contract"),
    ("forms.contract_form", "gradira.forms", "contract_form"),
    ("forms.contract_form_slot", "gradira.forms", "contract_form_slot"),
    ("calculus.d", "gradira.calculus", "exterior_derivative"),
    ("calculus.lie", "gradira.calculus", "lie_derivative"),
    ("calculus.lie", "gradira.calculus", "lie_derivative_mvform"),
    ("calculus.schouten", "gradira.calculus", "schouten"),
    ("calculus.poincare", "gradira.calculus", "poincare_primitive"),
    ("linsolve.solve", "gradira.linsolve", "solve_linear"),
    ("spans.decompose", "gradira.spans", "decompose_over"),
    ("structure.build", "gradira.structure", "Structure.__init__"),
    ("structure.derive_sharp", "gradira.structure", "Structure.derive_sharp"),
    ("structure.coset_is_zero", "gradira.structure", "Structure.coset_is_zero"),
    ("structure.contains", "gradira.structure", "Structure.contains"),
    ("extensions.build_span_tower", "gradira.extensions", "build_span_tower"),
    ("extensions.solve_sharp_j", "gradira.extensions", "solve_sharp_j"),
    ("morphisms.pullback", "gradira.morphisms", "pullback"),
    ("structfile.load", "gradira.structfile", "load_structure_file"),
    ("render.render", "gradira.render", "render"),
    ("dynamics.hamiltonian", "gradira.dynamics", "Hamiltonian.__post_init__"),
    ("dynamics.hdw", "gradira.dynamics", "hdw_residuals"),
    ("dynamics.gamma_H", "gradira.dynamics", "gamma_H"),
    ("dynamics.evolution", "gradira.dynamics", "check_evolution"),
]

SPAN_NAMES = sorted({name for name, _, _ in TARGETS})

# Extra counters kept by the wrappers themselves.
COUNTER_NAMES = [
    "scalars.arith.rational",  # arith calls whose arguments are all Rational
    "linsolve.cells",  # sum of rows x unknowns over solve calls
    "linsolve.inconsistent",  # solve calls that returned None
]

_MARK = "__perfbench_wrapped__"


class Recorder:
    """Records nested spans of the wrapped functions.

    ``clock`` is injectable so that the self-time arithmetic can be tested
    with a synthetic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.fn = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._patches = []
        self._rational = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, func):
        """A wrapper of ``func`` that records one span named ``name`` per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        fid = self._ids[name]
        fn_append = self.fn.append
        parent_append = self.parent.append
        start = self.start
        end = self.end
        stack = self._stack
        clock = self.clock
        pre = self._pre_hook(name)
        post = self._post_hook(name)

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            i = len(start)
            fn_append(fid)
            parent_append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        functools.update_wrapper(wrapper, func)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _pre_hook(self, name):
        counters = self.counters
        if name == "scalars.arith":
            rational = self._rational

            def pre(args):
                if all(isinstance(a, rational) for a in args):
                    counters["scalars.arith.rational"] += 1
                return args
            return pre
        if name == "linsolve.solve":
            def pre(args):
                rows = args[0] if isinstance(args[0], list) else list(args[0])
                counters["linsolve.cells"] += len(rows) * len(args[1])
                return (rows,) + tuple(args[1:])
            return pre
        return None

    def _post_hook(self, name):
        counters = self.counters
        if name == "linsolve.solve":
            def post(result):
                if result is None:
                    counters["linsolve.inconsistent"] += 1
            return post
        return None

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every binding of every target inside the gradira package."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        import sympy

        self._rational = sympy.Rational
        modules = gradira_modules()
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def summary(self):
        """{name: (calls, self seconds)} over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        fn = self.fn
        for i in range(n):
            f = fn[i]
            calls[f] += 1
            self_s[f] += end[i] - start[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "arrays": [["fn", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path):
    """Inverse of ``Recorder.write_spans``: (names, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays[key] = arr
    return header["names"], arrays


def gradira_modules():
    """The imported gradira package and its submodules."""
    return [
        module
        for modname, module in sorted(sys.modules.items())
        if module is not None
        and (modname == "gradira" or modname.startswith("gradira."))
    ]


def leftover_wrappers():
    """(owner, attribute) of every wrapper still bound inside gradira."""
    found = []
    for module in gradira_modules():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append((module.__name__, key))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append((f"{module.__name__}.{key}", attr))
    return found
