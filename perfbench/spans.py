"""Spans around bnnkit's public functions, recorded from outside the package.

``Tracer`` replaces module attributes (``bnnkit.runtime.binary_direct_conv``,
``bnnkit.floatops.batchnorm``, ...) with timing wrappers and puts the
originals back when it is closed.  Wrapping the attribute a caller actually
looks up is what makes a span land: the runtime imported
``binary_direct_conv`` and ``pack_to_nc1hwc2`` by name, so those are wrapped
on ``bnnkit.runtime``; it calls float operators as ``floatops.<name>``, so
those are wrapped on ``bnnkit.floatops``.

Each span records its parent, its duration and the time its child spans
cover, so self time is ``duration - child``.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from bnnkit import convert, floatops, modelfile, runtime


@dataclass(eq=False)
class Span:
    name: str
    bucket: str
    parent: "Span | None"
    start_ns: int = 0
    end_ns: int = 0
    child_ns: int = 0
    work: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def _bconv_work(args, result) -> dict:
    """Bit positions the direct conv computes, pads included, and the real ones."""
    packed, weights, params = args[:3]
    n, c, h, w = packed.dims
    outh, outw = params.out_extent(h, w)
    kh, kw = params.kernel
    per_group = n * weights.rows * outh * outw * kh * kw
    return {
        "bit_ops": per_group * packed.c1 * packed.c2,
        "useful_bits": per_group * c,
    }


def _pack_work(args, result) -> dict:
    return {"packed_bytes": result.data.nbytes}


def _floatop_metric(name: str) -> str:
    if name == "conv2d_f32":
        return "floatops.conv"
    if name == "fully_connected":
        return "floatops.fc"
    return "floatops.other"


def traced_functions() -> list[tuple[object, str, str, object]]:
    """(module, attribute, layer bucket, work counter) for every wrapped function.

    Every name ``bnnkit.floatops`` exports is wrapped, so an operator added
    there later is timed as ``floatops.other`` without a benchmark change.
    """
    table = [
        (runtime, "execute", "runtime", None),
        (runtime, "binary_direct_conv", "kernels.bconv", _bconv_work),
        (runtime, "pack_to_nc1hwc2", "layout.pack", _pack_work),
        (modelfile, "load_model", "modelfile.load", None),
        (modelfile, "save_model", "modelfile.save", None),
        (convert, "parse_interchange", "convert.parse", None),
        (convert, "convert_model", "convert.convert", None),
    ]
    table += [(floatops, n, _floatop_metric(n), None) for n in floatops.__all__]
    return table


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, bucket, work in traced_functions():
            self._wrap(module, attr, bucket, work)
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        self._stack.clear()

    def _wrap(self, module, attr: str, bucket: str, work) -> None:
        original = getattr(module, attr)  # AttributeError: the name moved
        qualified = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(qualified, bucket, stack[-1] if stack else None)
            stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.duration_ns
                spans.append(span)
            if work is not None:
                span.work.update(work(args, result))
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def take(self) -> list[Span]:
        """Spans recorded so far, oldest first; the tracer starts a new list."""
        spans, self.spans[:] = list(self.spans), []
        return spans
