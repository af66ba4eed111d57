"""Per-layer spans for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into each
layer: for the traced phase only, every function in ``SPANNED`` is replaced,
by name, in the namespace of each module that calls it (``fidelity.py`` binds
``require_physical`` with ``from .core import ...``, so the binding to replace
is ``gaussfid.fidelity.require_physical``).  Modules are resolved with
``importlib.import_module`` because the package attribute ``gaussfid.fidelity``
is the function, not the module.  A function that a later version of the
package no longer has is skipped, and its layer reports zero calls.

Self time of a span is its duration minus the time covered by its child
spans.  Calls of a layer count the spans whose parent is in another layer, so
``as_xxpp -> reorder_state`` is one reorder call.  ``numpy.linalg`` entry
points are counted and timed flat, without joining the span tree, so that
each layer's self time still includes the LAPACK work it asked for.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

# (layer, function name, modules whose namespace holds the binding the callers use)
SPANNED = (
    ("core.physicality", "require_physical", ("gaussfid.fidelity", "gaussfid.core")),
    ("core.physicality", "validate_state", ("gaussfid.core", "gaussfid.cli")),
    ("core.omega", "make_symplectic_form",
     ("gaussfid.core", "gaussfid.fidelity", "gaussfid.metrology", "gaussfid.states")),
    ("core.reorder", "as_xxpp", ("gaussfid.fidelity", "gaussfid.metrology", "gaussfid.cli")),
    ("core.reorder", "reorder_state", ("gaussfid.core", "gaussfid.states")),
    ("fidelity.aux_solve", "aux_matrix", ("gaussfid.fidelity",)),
    ("fidelity.spectrum", "aux_spectrum", ("gaussfid.fidelity",)),
    ("fidelity.invariants", "invariant_set", ("gaussfid.fidelity", "gaussfid.cli")),
    ("fidelity.logdet_disp", "fidelity", ("gaussfid.fidelity", "gaussfid.cli")),
    ("metrology.fd_fidelity", "fidelity", ("gaussfid.metrology",)),
    ("metrology.moment_derivs", "_moment_derivatives", ("gaussfid.metrology",)),
    ("metrology.metric_delta", "bures_metric_delta", ("gaussfid.metrology",)),
    ("states.build", "thermal", ("gaussfid.states",)),
    ("states.build", "squeezed", ("gaussfid.states",)),
    ("states.build", "displace", ("gaussfid.states",)),
    ("states.build", "apply_symplectic", ("gaussfid.states",)),
    ("states.build", "embed_symplectic", ("gaussfid.states",)),
    ("fock.gate_exp", "_unitary_from_generator", ("gaussfid.fock",)),
    ("fock.conjugation", "build_circuit_state", ("gaussfid.fock",)),
    ("fock.sqrt", "fidelity_of_matrices", ("gaussfid.fock",)),
    ("fock.moments", "moments_from_fock", ("gaussfid.fock",)),
    ("cli.parse", "parse_state_file", ("gaussfid.cli",)),
    ("cli.emit", "_emit", ("gaussfid.cli",)),
)

#: Layers whose spans are fidelity() calls; a typed error raised there is a refusal.
FIDELITY_LAYERS = ("fidelity.logdet_disp", "metrology.fd_fidelity")

LINALG = ("solve", "slogdet", "det", "eigvals", "eigvalsh", "eigh", "matrix_power")

ROOT = "op"

#: Ops whose full span records are kept and written out.
KEEP_OPS = 200


class Aggregate:
    """Per-layer totals over the ops of one section of a traced run."""

    def __init__(self):
        self.ops = 0
        self.op_ns = 0
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.linalg_calls = defaultdict(int)
        self.linalg_ns = 0

    def self_per_op(self, layer: str, scale: float) -> float:
        return self.self_ns[layer] / max(self.ops, 1) / scale

    def calls_per_op(self, layer: str) -> float:
        return self.calls[layer] / max(self.ops, 1)


class Tracer:
    """Records spans while installed; ``run_op`` opens the root span of one op.

    Full span records (op id, span id, parent id, layer, start, end, raised)
    are kept in memory for the first ``KEEP_OPS`` ops and written out when the
    benchmark ends; every op feeds the streaming per-layer aggregate.
    """

    def __init__(self, typed_error: type):
        self._typed_error = typed_error
        self._stack = []
        self._restore = []
        self._next_id = 0
        self._op_id = -1
        self.sections = {"main": Aggregate()}
        self.agg = self.sections["main"]
        self.spans = []

    def section(self, name: str) -> None:
        """Route the following ops to their own aggregate."""
        self.agg = self.sections.setdefault(name, Aggregate())

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, name, modules in SPANNED:
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    continue
                fn = module.__dict__.get(name)
                if callable(fn):
                    self._replace(module, name, self._wrap(layer, fn))
        try:
            handlers = importlib.import_module("gaussfid.cli").__dict__.get("HANDLERS")
        except ImportError:
            handlers = None
        if isinstance(handlers, dict):
            for command, fn in list(handlers.items()):
                self._replace(handlers, command, self._wrap("cli.handler", fn))
        linalg = importlib.import_module("numpy.linalg")
        for name in LINALG:
            fn = getattr(linalg, name, None)
            if callable(fn):
                self._replace(linalg, name, self._wrap_linalg(name, fn))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._restore.clear()

    def _replace(self, target, name, wrapper) -> None:
        if isinstance(target, dict):
            self._restore.append((target, name, target[name]))
            target[name] = wrapper
        else:
            self._restore.append((target, name, getattr(target, name)))
            setattr(target, name, wrapper)

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._span(layer, fn, args, kwargs)
        return spanned

    def _wrap_linalg(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                agg = self.agg
                agg.linalg_ns += perf_counter_ns() - t0
                agg.linalg_calls[name] += 1
        return counted

    # -- spans -------------------------------------------------------------

    def run_op(self, thunk):
        self._op_id += 1
        return self._span(ROOT, thunk, (), {})

    def _span(self, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, self._next_id, 0]
        self._next_id += 1
        stack.append(frame)
        raised = None
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            raised = exc
            raise
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            agg = self.agg
            agg.self_ns[layer] += dur - frame[2]
            if parent is None:
                agg.ops += 1
                agg.op_ns += dur
            else:
                parent[2] += dur
            if parent is None or parent[0] != layer:
                agg.calls[layer] += 1
                agg.incl_ns[layer] += dur
                if isinstance(raised, self._typed_error):
                    agg.errors[layer] += 1
            if self._op_id < KEEP_OPS:
                self.spans.append((self._op_id, frame[1], parent[1] if parent else None,
                                   layer, t0, t1, raised is not None))

    # -- checks ------------------------------------------------------------

    def check_spans(self) -> tuple[bool, int]:
        """Check the kept spans: children lie inside their parent without
        overlapping, and the self times of one op add up to its duration.

        Returns (all ops consistent, number of ops checked).
        """
        by_op = defaultdict(list)
        for span in self.spans:
            by_op[span[0]].append(span)
        for spans in by_op.values():
            index = {s[1]: s for s in spans}
            children = defaultdict(list)
            roots = []
            for s in spans:
                (children[s[2]] if s[2] is not None else roots).append(s)
            if len(roots) != 1:
                return False, len(by_op)
            total_self = 0
            for s in spans:
                kids = sorted(children[s[1]], key=lambda k: k[4])
                end = s[4]
                covered = 0
                for k in kids:
                    if k[4] < end or k[5] > s[5]:
                        return False, len(by_op)
                    covered += k[5] - k[4]
                    end = k[5]
                total_self += (s[5] - s[4]) - covered
            root = roots[0]
            if total_self != root[5] - root[4] or any(s[2] not in index for s in spans
                                                      if s[2] is not None):
                return False, len(by_op)
        return True, len(by_op)
