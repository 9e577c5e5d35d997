"""Span tracer that wraps the program's public functions from outside.

Every wrapped call becomes a span ``[name, start_ns, end_ns, parent, extra]``
kept in memory; ``parent`` is the index of the enclosing open span (-1 at the
top) and ``extra`` carries a per-call count (rows encoded, bytes written, tape
records). The wrappers are installed into every ``hotplug`` module namespace
that binds the wrapped function, so ``from .x import f`` call sites are
traced too, and are removed again by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

PRIMITIVES = ("matmul", "add", "sub", "mul", "scale", "mul_const", "transpose",
              "reshape", "index_select", "concat", "broadcast_to",
              "embedding_lookup", "sum_all", "softmax_rows", "log_softmax_rows",
              "l2_normalize_rows", "layer_norm")
# relu and gelu both dispatch through elementwise_activation, which the peft
# module also calls directly, so that one function is wrapped and its span is
# named after the activation kind.
ACTIVATIONS = ("relu", "gelu")
LAYERS = ("cli", "data", "training", "peft", "encoders", "losses", "autodiff",
          "evaluation")


def patch_function(module, attr, wrapper_of) -> list:
    """Replace every ``hotplug`` module binding of ``module.attr`` with
    ``wrapper_of(original)``; returns the ``(owner, key, original)`` list
    that ``unpatch`` restores."""
    original = getattr(module, attr)
    wrapper = wrapper_of(original)
    patches = []
    for name, mod in list(sys.modules.items()):
        if name == "hotplug" or name.startswith("hotplug."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def unpatch(patches: list):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.vjp_ns = 0

    # -- spans --------------------------------------------------------------
    def begin(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name, fn, extra=None):
        """``name`` is a string or a function of the call's arguments;
        ``extra(args, kwargs, result)`` gives the span's count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if extra is not None:
                s[4] = extra(args, kwargs, out)
            return out

        return traced

    def _wrap_cm(self, label, fn):
        """A context-manager factory whose span covers the ``with`` body. The
        span is named after the enclosing span, so the body's own code counts
        towards the layer that opened it: ``training.train_taca.step``."""

        @contextlib.contextmanager
        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]][0] if self._stack else "autodiff"
            with self.span(f"{parent}.{label}"), fn(*args, **kwargs) as value:
                yield value

        return traced

    def _wrap_backward(self, fn, autodiff):
        def timed(vjp):
            def run(g):
                t0 = time.perf_counter_ns()
                try:
                    return vjp(g)
                finally:
                    self.vjp_ns += time.perf_counter_ns() - t0
            return run

        @functools.wraps(fn)
        def traced(loss):
            tape = autodiff.current_tape()
            s = self.begin("autodiff.backward")
            s[4] = len(tape)
            try:
                tape.records = [(out, parents, timed(vjp))
                                for out, parents, vjp in tape.records]
                return fn(loss)
            finally:
                self.end(s)

        return traced

    def _patch_function(self, module, attr, wrapper_of):
        self._patches += patch_function(module, attr, wrapper_of)

    def _patch_method(self, cls, attr, name, extra=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, extra))

    def install(self):
        from hotplug import (autodiff, cli, data, encoders, evaluation, losses,
                             peft, training)

        fn = self._patch_function
        for prim in PRIMITIVES:
            fn(autodiff, prim, lambda f, p=prim: self._wrap(f"autodiff.{p}", f))
        fn(autodiff, "elementwise_activation", lambda f: self._wrap(
            lambda a, k: f"autodiff.{k.get('kind', a[1] if len(a) > 1 else '')}", f))
        fn(autodiff, "backward", lambda f: self._wrap_backward(f, autodiff))
        fn(autodiff, "new_tape", lambda f: self._wrap_cm("step", f))
        fn(autodiff, "no_grad", lambda f: self._wrap_cm("no_grad", f))

        rows = lambda a, k, out: int(out.shape[0]) if len(out.shape) == 2 else 1
        fn(encoders, "encode_image",
           lambda f: self._wrap("encoders.encode_image", f, rows))
        fn(encoders, "encode_text",
           lambda f: self._wrap("encoders.encode_text", f, rows))

        fn(peft, "adapter_forward", lambda f: self._wrap("peft.adapter_forward", f))
        fn(peft, "projector_forward",
           lambda f: self._wrap("peft.projector_forward", f))
        self._patch_method(peft.AdaptedVisualEncoder, "encode", "peft.adapted_encode")
        self._patch_method(peft.LoRAModule, "effective_weight",
                           "peft.lora_effective_weight")

        fn(losses, "compat_total", lambda f: self._wrap("losses.compat_total", f))
        fn(losses, "clip_symmetric_loss",
           lambda f: self._wrap("losses.clip_symmetric_loss", f))

        file_bytes = lambda a, k, out: os.path.getsize(a[1])
        fn(training, "pretrain_clip",
           lambda f: self._wrap("training.pretrain_clip", f))
        fn(training, "train_taca", lambda f: self._wrap("training.train_taca", f))
        fn(training, "save_checkpoint",
           lambda f: self._wrap("training.save_checkpoint", f, file_bytes))
        fn(training, "load_checkpoint",
           lambda f: self._wrap("training.load_checkpoint", f))
        self._patch_method(training.AdamW, "step", "training.AdamW.step")

        fn(data, "generate_dataset", lambda f: self._wrap("data.generate_dataset", f))
        fn(data, "save_dataset",
           lambda f: self._wrap("data.save_dataset", f, file_bytes))
        fn(data, "load_dataset", lambda f: self._wrap("data.load_dataset", f))

        for name in ("hot_plug_report", "train_head", "recall_at_k", "eval_top1",
                     "canonical_caption_gallery"):
            fn(evaluation, name, lambda f, n=name: self._wrap(f"evaluation.{n}", f))

        fn(cli, "main", lambda f: self._wrap(
            lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}", f))

    def uninstall(self):
        unpatch(self._patches)
        self._patches.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round (times in ms)."""
    spans = tracer.spans
    calls, total, extra = {}, {}, {}
    for name, start, end, _, count in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        extra[name] = extra.get(name, 0) + (count or 0)
    ms = lambda name: total.get(name, 0) / 1e6
    m = {}
    for prim in PRIMITIVES + ACTIVATIONS:
        m[f"autodiff.{prim}.calls"] = calls.get(f"autodiff.{prim}", 0)
        m[f"autodiff.{prim}.ms"] = ms(f"autodiff.{prim}")
    backward_calls = calls.get("autodiff.backward", 0)
    m["autodiff.backward_calls"] = backward_calls
    m["autodiff.backward_ms"] = ms("autodiff.backward") / max(backward_calls, 1)
    m["autodiff.tape_records"] = extra.get("autodiff.backward", 0)
    m["autodiff.vjp_ms"] = tracer.vjp_ns / 1e6
    for kind, unit in (("image", "images"), ("text", "texts")):
        m[f"encoders.encode_{kind}.ms"] = ms(f"encoders.encode_{kind}")
        m[f"encoders.encode_{kind}.calls"] = calls.get(f"encoders.encode_{kind}", 0)
        m[f"encoders.{unit}_encoded"] = extra.get(f"encoders.encode_{kind}", 0)
    for name in ("adapted_encode", "adapter_forward", "projector_forward",
                 "lora_effective_weight"):
        m[f"peft.{name}.ms"] = ms(f"peft.{name}")
    for name in ("compat_total", "clip_symmetric_loss"):
        m[f"losses.{name}.ms"] = ms(f"losses.{name}")

    # Training steps: the ``with new_tape()`` body of each loop iteration,
    # split by its backward and optimizer children.
    steps = {"pretrain": [], "taca": []}
    index = {"training.pretrain_clip.step": "pretrain",
             "training.train_taca.step": "taca"}
    open_steps = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name in index:
            open_steps[i] = [end - start, 0, 0, 0]
            steps[index[name]].append(open_steps[i])
        elif parent in open_steps:
            row = open_steps[parent]
            if name == "autodiff.backward":
                row[1] += end - start
                row[3] += spans[i][4]
            elif name == "training.AdamW.step":
                row[2] += end - start
    for phase, rows in steps.items():
        med = lambda xs: statistics.median(xs) / 1e6 if xs else 0.0
        m[f"training.{phase}.step_ms"] = med([r[0] for r in rows])
        m[f"training.{phase}.forward_ms"] = med([r[0] - r[1] - r[2] for r in rows])
        m[f"training.{phase}.backward_ms"] = med([r[1] for r in rows])
        m[f"training.{phase}.optimizer_ms"] = med([r[2] for r in rows])
        m[f"training.{phase}.tape_records"] = (
            statistics.median([r[3] for r in rows]) if rows else 0)
    m["training.old_feature_precompute_ms"] = ms("training.train_taca.no_grad")
    m["training.save_checkpoint_ms"] = ms("training.save_checkpoint")
    m["training.load_checkpoint_ms"] = ms("training.load_checkpoint")
    m["training.checkpoint_bytes"] = extra.get("training.save_checkpoint", 0)
    m["data.generate_ms"] = ms("data.generate_dataset")
    m["data.save_ms"] = ms("data.save_dataset")
    m["data.load_ms"] = ms("data.load_dataset")
    m["data.dataset_bytes"] = extra.get("data.save_dataset", 0)
    for name in ("hot_plug_report", "train_head", "recall_at_k", "eval_top1"):
        m[f"evaluation.{name}.ms"] = ms(f"evaluation.{name}")
    m["evaluation.train_head.calls"] = calls.get("evaluation.train_head", 0)
    m["evaluation.caption_gallery.ms"] = ms("evaluation.canonical_caption_gallery")

    # Self time summed by layer; the CLI's is the command time not spent in
    # any traced library call.
    layer_self = dict.fromkeys(LAYERS, 0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer_self[name.split(".", 1)[0]] += own
    m["cli.overhead_ms"] = layer_self.pop("cli") / 1e6
    for layer, ns in layer_self.items():
        m[f"{layer}.self_ms"] = ns / 1e6
    m["trace.spans"] = len(spans)
    return m
