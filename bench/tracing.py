"""Spans and scalar-op counters recorded from outside qplane.

``Tracer.install()`` replaces every public function of the traced modules
at every place it is bound (modules import by name, so ``qplane.jordan.rank``
and ``qplane.matrices.rank`` are patched separately), plus
``QMatrix.__mul__`` for matrix products.  Each call opens a span.  The
``QScalar`` operators, including the ``__radd__``/``__rmul__`` aliases and
``inverse``, only bump a counter on the innermost open span, split by
regime.  Spans stay in memory; ``write_jsonl`` dumps them after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("scalars", "matrices", "jordan", "chains", "commutant",
          "components", "classify", "git_quotient", "serialize", "cli")

SCALAR_OPS = (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
              ("__radd__", "add"), ("inverse", "inverse"))

# operand pairs kept per (regime, op) for the replay timing
SAMPLE_CAP = 2048


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "counts", "excluded")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.counts = None
        self.excluded = 0.0   # bookkeeping time spent by the tracer itself


class OperandSample:
    """Deterministic thinning: keep every stride-th op, halving when full."""

    __slots__ = ("seen", "stride", "kept")

    def __init__(self):
        self.seen = 0
        self.stride = 1
        self.kept = []

    def offer(self, operands):
        self.seen += 1
        if self.seen % self.stride:
            return
        self.kept.append(operands)
        if len(self.kept) >= SAMPLE_CAP:
            self.kept = self.kept[1::2]
            self.stride *= 2


class Tracer:
    def __init__(self):
        from qplane.matrices import QMatrix
        from qplane.scalars import QScalar
        self.QMatrix = QMatrix
        self.QScalar = QScalar
        self.operands = (QScalar, int, Fraction)
        self.spans = []
        self.stack = []
        self.task = None          # (pass, task index) running; None = not recording
        self.root_counts = {}     # ops outside any span but inside a task
        self.elim_entries = 0
        self.elim_nonzero = 0
        self.samples = {}
        self.originals = []       # (owner, attribute, original)
        self.scalar_originals = {}

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, pre=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if pre is not None:
                t0 = perf_counter()
                pre(args)
                if parent is not None:
                    parent.excluded += perf_counter() - t0
            sp = Span(name, perf_counter(), parent, tracer.task)
            tracer.spans.append(sp)
            stack.append(sp)
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                stack.pop()

        return traced

    def counter(self, op, fn, binary):
        tracer = self

        def bump(regime):
            key = f"{regime}.{op}"
            stack = tracer.stack
            if stack:
                sp = stack[-1]
                if sp.counts is None:
                    sp.counts = {}
                counts = sp.counts
            else:
                counts = tracer.root_counts
            counts[key] = counts.get(key, 0) + 1
            return key

        if binary:
            def counted(self, other):
                # the operand types QScalar._coerce accepts; anything else
                # returns NotImplemented and is not a scalar op
                if tracer.task is not None and isinstance(other, tracer.operands):
                    key = bump("gen" if self.ctx.is_generic else "cyc")
                    tracer.sample(key, (self, other))
                return fn(self, other)
        else:
            def counted(self):
                if tracer.task is not None:
                    key = bump("gen" if self.ctx.is_generic else "cyc")
                    tracer.sample(key, (self,))
                return fn(self)
        return counted

    def sample(self, key, operands):
        sample = self.samples.get(key)
        if sample is None:
            sample = self.samples[key] = OperandSample()
        sample.offer(operands)

    def elim_input(self, args):
        M = args[0]
        self.elim_entries += M.nrows * M.ncols
        self.elim_nonzero += sum(1 for row in M.rows for x in row if not x.is_zero())

    # -- patching -----------------------------------------------------------

    def _targets(self):
        """(original, span name) for each public function of each layer."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"qplane.{layer}"]
            for name, value in vars(mod).items():
                if name.startswith("_"):
                    continue
                is_func = inspect.isfunction(value) or isinstance(
                    value, functools._lru_cache_wrapper)
                if is_func and getattr(value, "__module__", None) == mod.__name__:
                    targets[id(value)] = (value, f"{layer}.{name}")
        return targets

    def install(self):
        elim = {"matrices.rank", "matrices.kernel_basis", "matrices.inverse"}
        wrappers = {}
        for key, (fn, name) in self._targets().items():
            pre = self.elim_input if name in elim else None
            wrappers[key] = self.span(name, fn, pre)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qplane" and not mod_name.startswith("qplane."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self.originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        # matrix products (scalar scaling stays with the caller)
        orig_mul = self.QMatrix.__mul__
        matmul = self.span("matrices.matmul", orig_mul)
        QMatrix = self.QMatrix

        def mul(a, b):
            if isinstance(b, QMatrix):
                return matmul(a, b)
            return orig_mul(a, b)

        self.originals.append((QMatrix, "__mul__", orig_mul))
        QMatrix.__mul__ = mul
        for attr, op in SCALAR_OPS:
            orig = self.QScalar.__dict__[attr]
            self.scalar_originals[op] = orig
            self.originals.append((self.QScalar, attr, orig))
            setattr(self.QScalar, attr, self.counter(op, orig, attr != "inverse"))

    def uninstall(self):
        for owner, attr, value in reversed(self.originals):
            setattr(owner, attr, value)
        self.originals.clear()

    # -- results ------------------------------------------------------------

    def aggregate(self, factors):
        """Per span name: calls, self seconds, and op counts by key.

        ``factors`` maps a span's task key to the factor that rescales its
        task's time to the reference calibration speed.
        """
        child = {}
        for sp in self.spans:
            if sp.parent is not None:
                child[id(sp.parent)] = child.get(id(sp.parent), 0.0) + (sp.end - sp.start)
        per_name = {}
        ops = dict(self.root_counts)
        for sp in self.spans:
            entry = per_name.setdefault(sp.name, [0, 0.0])
            entry[0] += 1
            own = (sp.end - sp.start) - child.get(id(sp), 0.0) - sp.excluded
            entry[1] += own * factors[sp.task]
            if sp.counts:
                for key, c in sp.counts.items():
                    ops[key] = ops.get(key, 0) + c
        return per_name, ops

    def replay(self, key, min_seconds=0.05):
        """Seconds per op, replaying the recorded operands untraced."""
        sample = self.samples.get(key)
        if not sample or not sample.kept:
            return None
        fn = self.scalar_originals[key.split(".")[1]]
        kept = sample.kept
        reps = 0
        start = perf_counter()
        while True:
            if len(kept[0]) == 2:
                for a, b in kept:
                    fn(a, b)
            else:
                for (a,) in kept:
                    fn(a)
            reps += 1
            elapsed = perf_counter() - start
            if elapsed >= min_seconds:
                return elapsed / (reps * len(kept))

    def write_jsonl(self, path):
        index = {id(sp): k for k, sp in enumerate(self.spans)}
        with open(path, "w") as out:
            for k, sp in enumerate(self.spans):
                out.write(json.dumps({
                    "id": k, "name": sp.name, "task": sp.task,
                    "parent": index.get(id(sp.parent)) if sp.parent else None,
                    "start": sp.start, "end": sp.end,
                    "ops": sp.counts or {},
                }) + "\n")
