"""Span tracer installed from outside the package.

`Tracer.install()` replaces each traced function or method of
`anatomy_attn` with a timing wrapper, on every module attribute and class
the package calls it through, and `uninstall()` puts the originals back.
A span records its name, start, end, parent span and thread id; spans stay
in memory until the run ends. The tracer is thread-safe: each thread keeps
its own stack of open spans, and span ids come from one locked list.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

MODULES = ("tensor", "ops", "attention", "model", "optim", "harness",
           "gradcheck", "suite", "seg", "serialize", "config", "cli")

# Traced functions: (span name, defining module, attribute).
FUNCTIONS = [
    ("ops.conv3x3", "ops", "conv3x3"),
    ("ops.resize", "ops", "resize"),
    ("ops.batch_norm", "ops", "batch_norm"),
    ("ops.conv_1x1", "ops", "conv_1x1"),
    ("ops.fully_connected", "ops", "fully_connected"),
    ("ops.softmax_pair", "ops", "softmax_pair"),
    ("ops.softmax_channels", "ops", "softmax_channels"),
    ("attention.aaa_forward", "attention", "aaa_forward"),
    ("attention.pwap", "attention", "pwap"),
    ("attention.couple_attention", "attention", "couple_attention"),
    ("model.bce_loss", "model", "bce_loss"),
    ("model.predict", "model", "predict"),
    ("model.train", "model", "train"),
    ("harness.gen_synthetic", "harness", "gen_synthetic"),
    ("harness.train_condition", "harness", "train_condition"),
    ("harness.ablation_sweep", "harness", "ablation_sweep"),
    ("harness.auc", "harness", "auc"),
    ("gradcheck.grad_check", "gradcheck", "grad_check"),
    ("suite.run_gradcheck_suite", "suite", "run_gradcheck_suite"),
    ("seg.gen_losses", "seg", "gen_losses"),
    ("seg.adv_losses", "seg", "adv_losses"),
    ("seg.cycle_losses", "seg", "cycle_losses"),
    ("serialize.save_tensors", "serialize", "save_tensors"),
    ("serialize.load_tensors", "serialize", "load_tensors"),
]

# Traced methods: (span name, defining module, class, method).
METHODS = [
    ("tensor.Tensor.backward", "tensor", "Tensor", "backward"),
    ("attention.AnatomyMasks.resized", "attention", "AnatomyMasks", "resized"),
    ("attention.AnatomyMasks.__post_init__", "attention", "AnatomyMasks",
     "__post_init__"),
    ("model.ToyModel.forward", "model", "ToyModel", "forward"),
    ("model.ToyModel.snapshot", "model", "ToyModel", "snapshot"),
    ("optim.Adam.step", "optim", "Adam", "step"),
]

# Each evaluation of a gradcheck target `f` is a span of its own.
TARGET_SPAN = "gradcheck.target"

SPAN_NAMES = ([name for name, _, _ in FUNCTIONS]
              + [name for name, _, _, _ in METHODS] + [TARGET_SPAN])

# Spans whose latency distribution is reported, not only their totals.
LATENCY_SPANS = ("tensor.Tensor.backward", "model.ToyModel.forward",
                 "harness.train_condition", TARGET_SPAN)


def graph_size(root) -> tuple:
    """(nodes, output bytes) of the autodiff graph reachable from `root`
    through `Tensor._parents`. Read-only."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return len(seen), sum(t.data.nbytes for t in seen.values())


class Tracer:
    """Records spans around the package's public functions."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, thread id]
        self.graphs = []         # (scope span name, nodes, bytes)
        self.reports = []        # GradCheckReport objects, in order
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []       # (owner, attribute, original)

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, 0.0, None, parent, threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span[1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def _count_graph(self, root_span: str, tensor) -> None:
        scope = getattr(self._local, "graph_scope", None)
        if scope is None or scope[1] != root_span or scope[2]:
            return
        scope[2] = True
        nodes, nbytes = graph_size(tensor)
        with self._lock:
            self.graphs.append((scope[0], nodes, nbytes))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    def _wrap_graph_scope(self, name: str, root_span: str, fn):
        """Span that counts the first graph built inside it by a call of
        `root_span`: the loss of the first step of `model.train`, the
        first batch of `model.predict`, the first target evaluation of
        `grad_check`."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = getattr(tracer._local, "graph_scope", None)
            tracer._local.graph_scope = [name, root_span, False]
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                tracer._local.graph_scope = outer

        return wrapper

    def _wrap_graph_root(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._count_graph(name, out)
            return out

        return wrapper

    def _wrap_grad_check(self, name: str, fn):
        tracer = self
        timed_target = functools.partial(self._wrap_graph_root, TARGET_SPAN)
        scoped = self._wrap_graph_scope(name, TARGET_SPAN, fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            report = scoped(timed_target(f), *args, **kwargs)
            with tracer._lock:
                tracer.reports.append(report)
            return report

        return wrapper

    # -- install / uninstall --------------------------------------------

    def _wrapper_for(self, name: str, fn):
        if name == "gradcheck.grad_check":
            return self._wrap_grad_check(name, fn)
        if name == "model.train":
            return self._wrap_graph_scope(name, "model.bce_loss", fn)
        if name == "model.predict":
            return self._wrap_graph_scope(name, "model.ToyModel.forward", fn)
        if name in ("model.bce_loss", "model.ToyModel.forward"):
            return self._wrap_graph_root(name, fn)
        return self._wrap(name, fn)

    def install(self) -> None:
        """Wrap every traced callable on every attribute that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"anatomy_attn.{m}") for m in MODULES]
        mods.append(sys.modules["anatomy_attn"])
        for name, mod, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"anatomy_attn.{mod}"),
                               attr)
            wrapper = self._wrapper_for(name, original)
            holders = [m for m in mods if getattr(m, attr, None) is original]
            for m in holders:
                self._patched.append((m, attr, original))
                setattr(m, attr, wrapper)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"anatomy_attn.{mod}"),
                          cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrapper_for(name, original))

    def uninstall(self) -> list:
        """Restore every original; returns the attributes that did not
        come back (empty when the restore is complete)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        broken = [f"{o.__name__}.{a}" for o, a, orig in self._patched
                  if vars(o)[a] is not orig]
        self._patched = []
        return broken

    @property
    def patched_attributes(self) -> int:
        return len(self._patched)

    # -- summaries ------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]
