"""Span tracing of the package's layers from outside the package.

A Tracer replaces module and class attributes of ``thinsections`` with
wrappers for the length of one job and puts the originals back in
``finally``.  Every call through a wrapper records a span (layer name,
start, end, parent span) in flat arrays kept in memory; ``summary`` turns
them into per-layer calls, inclusive time and self time, and ``save``
writes the spans out when the run ends.

A name is wrapped where its callers look it up: ``bands`` reaches
``iis.neighbors`` as ``bands.orbit_neighbors`` and ``verify`` imports the
surface checks by name, so those attributes are wrapped as well.  A
wrapped name that no longer exists is reported as absent.
"""

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np


def _is_zero(value):
    return 1 if value == 0 else 0


def _rows(value):
    return value[0].shape[0]


# (layer name, [(module, attribute path)], tally of the return value)
TARGETS = (
    ("numberfield.sign", [("numberfield", "FieldElement.sign")], _is_zero),
    ("numberfield.is_zero", [("numberfield", "FieldElement.is_zero")], None),
    ("numberfield.add", [("numberfield", "FieldElement.__add__"),
                         ("numberfield", "FieldElement.__radd__")], None),
    ("numberfield.sub", [("numberfield", "FieldElement.__sub__")], None),
    ("numberfield.mul", [("numberfield", "FieldElement.__mul__"),
                         ("numberfield", "FieldElement.__rmul__")], None),
    ("numberfield.inverse", [("numberfield", "FieldElement.inverse")], None),
    ("numberfield.refine", [("numberfield", "NumberField.refine")], None),
    ("polynomials.evaluate_interval", [("polynomials", "evaluate_interval")], None),
    ("bands.step", [("bands", "_rips_step_tracked")], None),
    ("bands.collapse", [("bands", "_collapse")], None),
    ("bands.merge", [("bands", "_merge")], None),
    ("bands.drop_dead", [("bands", "_drop_dead")], None),
    ("bands.segmentation", [("bands", "segmentation")], None),
    ("bands.transition_matrix", [("bands", "_transition_matrix")], None),
    ("bands.signature", [("bands", "combinatorial_signature")], None),
    ("bands.find_free_subarcs", [("bands", "find_free_subarcs")], None),
    ("bands.removal_round", [("bands", "_removal_round")], None),
    ("bands.prune_rounds", [("bands", "_prune_rounds")], None),
    ("iis.neighbors", [("iis", "neighbors"), ("bands", "orbit_neighbors")], None),
    ("iis.rauzy_step", [("iis", "rauzy_step")], None),
    ("iis.affine_match", [("iis", "affine_match")], None),
    ("surface.saddle_levels", [("surface", "saddle_levels"),
                               ("verify", "saddle_levels")], None),
    ("surface.check_central_symmetry", [("surface", "check_central_symmetry"),
                                        ("verify", "check_central_symmetry")], None),
    ("surface.euler_characteristic", [("surface", "euler_characteristic"),
                                      ("verify", "euler_characteristic")], None),
    ("sections.trace_section", [("sections", "trace_section")], len),
    ("sections.sample_levels", [("sections", "sample_levels")], len),
    ("sections._chains", [("sections", "_chains")], None),
    ("sections._classify", [("sections", "_classify")], None),
    ("kernels.emit_segments", [("_kernels", "emit_segments")], _rows),
    ("kernels.match_endpoints", [("_kernels", "match_endpoints")], None),
)

LAYERS = tuple(name for name, _, _ in TARGETS)

# Values derived from calls and tallies, reported next to the per-layer ones.
DERIVED = (
    ("numberfield.sign.zero_frac", "ratio"),
    ("bands.segmentation.per_step", "ratio"),
    ("bands.removal_round.regrows_per_sample", "ratio"),
    ("sections.sample_levels.attempts_per_level", "ratio"),
    ("kernels.emit_segments.rows", "count"),
    ("sections.components", "count"),
)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(layer + ".calls", "count"), (layer + ".total_s", "s"),
                (layer + ".self_s", "s")]
    return out + list(DERIVED) + [("trace.overhead_frac", "ratio")]


def _resolve(module, path):
    """(owner, attribute, current value) or None when the name is absent."""
    owner = importlib.import_module("thinsections." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        n = len(TARGETS)
        self.depth = [0] * n
        self.total = [0.0] * n
        self.tally = [0] * n
        self.absent = []
        self._patched = []

    def _wrap(self, index, fn, tally):
        clock = time.perf_counter
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack, depth, total, tallies = self.stack, self.depth, self.total, self.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(starts)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(k)
            depth[index] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[k] = t
                stack.pop()
                depth[index] -= 1
                # Inclusive time counts only the outermost span of a layer.
                if not depth[index]:
                    total[index] += t - starts[k]
            if tally is not None:
                tallies[index] += tally(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the body of the with-statement."""
        try:
            for index, (name, sites, tally) in enumerate(TARGETS):
                found = False
                for module, path in sites:
                    hit = _resolve(module, path)
                    if hit is None:
                        continue
                    owner, attr, original = hit
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(index, original, tally))
                    found = True
                if not found:
                    self.absent.append(name)
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def _arrays(self):
        layer = np.frombuffer(self.layer, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return layer, parent, start, end

    def summary(self):
        """Per-layer calls, total_s and self_s plus the derived values."""
        n = len(TARGETS)
        layer, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=dur - child, minlength=n)
        out = {}
        for i, name in enumerate(LAYERS):
            out[name + ".calls"] = int(calls[i])
            out[name + ".total_s"] = float(self.total[i])
            out[name + ".self_s"] = float(self_s[i])
        ix = {name: i for i, name in enumerate(LAYERS)}

        def ratio(num, den):
            return num / den if den else 0.0

        emit, sample = ix["kernels.emit_segments"], ix["sections.sample_levels"]
        under_sample = nested & (layer == emit)
        under_sample[under_sample] = layer[parent[under_sample]] == sample
        out["numberfield.sign.zero_frac"] = ratio(
            self.tally[ix["numberfield.sign"]], calls[ix["numberfield.sign"]])
        out["bands.segmentation.per_step"] = ratio(
            calls[ix["bands.segmentation"]], calls[ix["bands.step"]])
        rounds = calls[ix["bands.removal_round"]]
        out["bands.removal_round.regrows_per_sample"] = (
            ratio(calls[ix["bands.prune_rounds"]], 2 * rounds) - 1 if rounds else 0.0)
        out["sections.sample_levels.attempts_per_level"] = ratio(
            int(under_sample.sum()), self.tally[sample])
        out["kernels.emit_segments.rows"] = int(self.tally[emit])
        out["sections.components"] = int(self.tally[ix["sections.trace_section"]])
        return out

    def save(self, path):
        """Write the spans: layer index, parent span (-1 for none), start, end."""
        layer, parent, start, end = self._arrays()
        np.savez_compressed(path, layers=np.array(LAYERS), layer=layer.astype(np.int16),
                            parent=parent.astype(np.int32), start=start, end=end)
