"""Per-layer tracing from outside the program.

While installed, the tracer replaces each public layer function, at the
module attribute its callers look up, with a wrapper that records a span:
name, start, duration and the span that was open when it began. Spans
stay in memory; per-layer statistics are computed when the run ends.
Nothing here runs in an untraced run.

Medians per call are taken over every span of the run. Call counts, busy
time and the k-means counts are taken over a fixed amount of work: the
set-up, the warm-up and the first round, which `end_fixed_work` closes.
They then depend on the code and the inputs, not on how many rounds the
host's speed lets into --seconds.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

from orthosep import embedding, metrics, network, pipeline

# (module, attribute, layer name). A layer function that several modules
# import by name is wrapped at each of them.
TRACED = [
    (network, "train", "network.train"),
    (network, "backward", "network.backward"),
    (network, "adam_step", "network.adam"),
    (network, "save_checkpoint", "network.checkpoint_save"),
    (network, "load_checkpoint", "network.checkpoint_load"),
    (network, "render_mixture", "dataset.render"),
    (network, "stft", "signal.stft"),
    (network, "log_magnitude", "signal.log_magnitude"),
    (embedding, "combined_loss", "embedding.loss_grad"),
    (embedding, "loss_gradient", "embedding.loss_grad"),
    (pipeline, "evaluate_entry", "pipeline.evaluate"),
    (pipeline, "separate_spectrogram", "pipeline.separate"),
    (pipeline, "render_mixture", "dataset.render"),
    (pipeline, "stft", "signal.stft"),
    (pipeline, "istft", "signal.istft"),
    (pipeline, "log_magnitude", "signal.log_magnitude"),
    (pipeline, "forward", "network.forward"),
    (pipeline, "kmeans", "clustering.kmeans"),
    (pipeline, "masks_from_clusters", "clustering.masks"),
    (metrics, "sdr", "metrics.score"),
    (metrics, "npa", "metrics.score"),
    (metrics, "mask_error_rate", "metrics.score"),
]

# Layers made of several calls: one sample is the summed time of all
# their calls inside one parent span (one backward, one evaluated mixture).
COMPOSITE = {"embedding.loss_grad", "metrics.score"}

# Time of the whole pipeline call minus its timed parts.
GLUE = "pipeline.glue"

LAYERS = sorted({name for _, _, name in TRACED} | {GLUE})
SECONDS_LAYERS = {"network.train"}  # reported per call in s, the rest in ms
# Peak tracemalloc allocation of one call, probed after the run.
ALLOC = {"network.adam": "network.adam_alloc_mb", "clustering.kmeans": "clustering.kmeans_alloc_mb"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, duration, parent index or -1]
        self.kmeans = []  # (span index, points, Lloyd iterations)
        self.fixed_end = None  # number of spans in the fixed work
        self.last_args = {}
        self._open = []
        self._originals = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter() - start
                spans[index][1] = start
                stack.pop()
            if name in ALLOC:
                self.last_args[name] = (fn, args, kwargs)
            if name == "clustering.kmeans":
                self.kmeans.append((index, len(args[0]), result.iterations))
            return result

        return traced

    def install(self):
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def end_fixed_work(self):
        self.fixed_end = len(self.spans)

    def probe_alloc(self):
        """Peak traced allocation, in MB, of one more call of each probed
        layer with the arguments of its last traced call."""
        out = {}
        for layer, metric in ALLOC.items():
            if layer not in self.last_args:
                out[metric] = 0.0
                continue
            fn, args, kwargs = self.last_args[layer]
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                out[metric] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return out

    def layer_samples(self, spans):
        """Per layer: (number of calls, list of per-sample seconds)."""
        calls = defaultdict(int)
        samples = defaultdict(list)
        composite = defaultdict(float)
        child_time = defaultdict(float)
        for name, _, dur, parent in spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
            if name in COMPOSITE:
                composite[(name, parent)] += dur
            else:
                samples[name].append(dur)
        for (name, _), dur in composite.items():
            samples[name].append(dur)
        # glue: self time of pipeline spans, summed per outermost pipeline call
        glue = defaultdict(float)
        for i, (name, _, dur, parent) in enumerate(spans):
            if not name.startswith("pipeline."):
                continue
            top = i
            while spans[top][3] >= 0 and spans[spans[top][3]][0].startswith("pipeline."):
                top = spans[top][3]
            glue[top] += dur - child_time[i]
        calls[GLUE] = len(glue)
        samples[GLUE] = list(glue.values())
        return calls, samples

    def metrics(self):
        """Every per-layer metric; a layer the run never called reads 0."""
        fixed_end = len(self.spans) if self.fixed_end is None else self.fixed_end
        _, samples = self.layer_samples(self.spans)
        calls, fixed_samples = self.layer_samples(self.spans[:fixed_end])
        out = {}
        for layer in LAYERS:
            s = samples.get(layer, [])
            median = statistics.median(s) if s else 0.0
            if layer in SECONDS_LAYERS:
                out[f"{layer}_s"] = (median, "s")
            else:
                out[f"{layer}_ms"] = (median * 1e3, "ms")
            out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
            out[f"{layer}.busy_s"] = (float(sum(fixed_samples.get(layer, []))), "s")
        fixed_kmeans = [k for k in self.kmeans if k[0] < fixed_end]
        out["clustering.points"] = (sum(k[1] for k in fixed_kmeans), "count")
        out["clustering.lloyd_iterations"] = (sum(k[2] for k in fixed_kmeans), "count")
        for name, mb in self.probe_alloc().items():
            out[name] = (mb, "MB")
        return out
