"""Layer spans around sqzsim's public functions, and their reduction.

The traced child process wraps, from outside the package, every public
function and every public method of a public class defined in one of the
layer modules, and rebinds each wrapped function wherever a ``sqzsim``
module holds a reference to it (``from sqzsim.dsp import ...`` included).
The package itself carries no timing code.

A span is ``[name, start, end, parent, samples, nbytes]``: ``name`` is
``<layer>.<function>`` or ``<layer>.<Class>.<method>``, times come from
``time.monotonic``, ``parent`` is the index of the enclosing span (-1 at
the root), and ``samples``/``nbytes`` give the size of the frame stack a
``homodyne.simulate_frames`` call returned (0 for every other span).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("pump", "opa", "homodyne", "dsp", "tomography", "quantum", "scenarios")

ROOT = "scenarios.run_scenario"
SIZED = "homodyne.simulate_frames"

PROJECTION = ("dsp.extract_quadratures", "dsp.vacuum_quadrature_scale")
SPECTRUM = ("dsp.average_spectrum", "dsp.band_average")


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name == SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if sized:
                span[4], span[5] = int(result.frames.size), int(result.frames.nbytes)
            return result

        return traced

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(label, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(label, attr.__func__)))

    def instrument(self) -> None:
        """Wrap the layer modules of the imported ``sqzsim`` package."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "sqzsim" or n.startswith("sqzsim.")
        ]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"sqzsim.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])


def _outermost_total(spans: list[list], names: tuple[str, ...]) -> tuple[float, int]:
    """Duration of the spans named in ``names`` that no other such span encloses."""
    total, calls = 0.0, 0
    for span in spans:
        if span[0] not in names:
            continue
        calls += 1
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total, calls


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced scenario run, in seconds and counts."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= dur[i]
    busy = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        busy[span[0].split(".", 1)[0]] += own[i]
    wall = sum(dur[i] for i, s in enumerate(spans) if s[0] == ROOT and s[3] < 0)
    samples = sum(s[4] for s in spans if s[0] == SIZED)
    frame_bytes = sum(s[5] for s in spans if s[0] == SIZED)
    projection_s, projection_calls = _outermost_total(spans, PROJECTION)
    prediction_s, prediction_calls = _outermost_total(spans, ("tomography.duan_prediction",))
    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS if layer != "scenarios"}
    metrics.update({
        "scenarios.self_s": busy["scenarios"],
        "homodyne.ns_per_sample": 1e9 * busy["homodyne"] / samples if samples else 0.0,
        "homodyne.frames_mb": frame_bytes / 1e6,
        "dsp.projection_s": projection_s,
        "dsp.projection_calls": projection_calls,
        "dsp.spectrum_s": _outermost_total(spans, SPECTRUM)[0],
        "dsp.fir_s": _outermost_total(spans, ("dsp.fir_lowpass",))[0],
        "dsp.variance_s": _outermost_total(spans, ("dsp.pointwise_variance",))[0],
        "tomography.epr_self_s": sum(
            (own[i] for i, s in enumerate(spans) if s[0] == "tomography.run_epr_analysis"), 0.0),
        "tomography.prediction_s": prediction_s,
        "tomography.prediction_calls": prediction_calls,
        "quantum.duan_s": _outermost_total(spans, ("quantum.duan_value",))[0],
        "trace.wall_s": wall,
        "trace.layer_pct": 100.0 * (1.0 - busy["scenarios"] / wall) if wall > 0 else 0.0,
    })
    return metrics
