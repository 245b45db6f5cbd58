"""Per-layer spans for verolink, installed from outside the package.

``install`` wraps the functions listed in ``LAYERS`` and rebinds every
name that refers to them in every loaded ``verolink`` module, because
``cli``, ``link``, ``poly`` and ``verify`` import names into their own
namespaces: patching only the defining module would leave those calls
untimed and their time would fall into the caller's self time.

Each call opens a span (layer, parent span, start, end).  Generator
functions get one span per resumption, so their whole iteration is
timed rather than only their creation.  A layer's self time is the sum
of its span durations minus the durations of their direct children.
A layer's ``calls`` counts entries into it from another layer (or from
no layer), so a layer function calling another of the same layer counts
once.  ``veronese`` is not wrapped; its time falls to its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# layer -> (module, functions); "Class.method" names a method.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fibers.enumerate": ("verolink.fibers", (
        "_raw_fiber", "enumerate_fiber", "degrees_up_to")),
    "fibers.classify": ("verolink.fibers", (
        "class_key", "class_count", "fiber_classes", "hilbert_table",
        "canonical_representative")),
    "poly.character": ("verolink.poly", (
        "character_value", "all_characters", "character_of_twisting",
        "twisting_from_character")),
    "poly.arith": ("verolink.poly", ("SparsePoly.__mul__", "twist")),
    "poly.reduce": ("verolink.poly", (
        "normal_form", "in_principal_minor_ideal", "in_twisted_veronese")),
    "poly.text": ("verolink.poly", ("parse_poly", "render_poly")),
    "exactlin.eliminate": ("verolink.exactlin", (
        "rational_rank", "rational_nullspace", "rational_rref")),
    "exactlin.compare": ("verolink.exactlin", (
        "same_column_space", "contains_column_space")),
    "exactlin.lattice": ("verolink.exactlin", (
        "hermite_normal_form", "smith_normal_form", "solve_rational",
        "kernel_lattice", "column_lattice_basis", "invariant_factors", "det")),
    "verify.assemble": ("verolink.verify", (
        "verify_link", "verify_decomposition", "ideal_degree_piece",
        "subintersection_degree_piece", "colon_membership")),
    "verify.oracle": ("verolink.verify", (
        "group_algebra_subintersection", "higher_torsion")),
    "link.saturated": ("verolink.link", (
        "saturated_fiber_poly", "link_generators", "zonotope_poly")),
    "ideals.gens": ("verolink.ideals", (
        "principal_minor_gens", "veronese_minor_gens", "higher_veronese_gens",
        "generator_lattice")),
}
ROOT_LAYER = "cli"


class Tracer:
    """Spans kept in memory, aggregated once the traced command ends."""

    def __init__(self):
        # Each span: [layer, parent index, start, end, counts as a call].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"fibers.enumerate.points": 0, "fibers.raw_calls": 0,
                         "exactlin.eliminate.entries": 0, "verify.records": 0}
        self.fiber_keys: set = set()

    def open(self, layer: str, first: bool = True) -> int:
        parent = self.stack[-1] if self.stack else -1
        entry = first and (parent < 0 or self.spans[parent][0] != layer)
        index = len(self.spans)
        self.spans.append([layer, parent, time.perf_counter(), 0.0, entry])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{layer: {"calls": entries, "self_s": self time}} over all spans."""
        totals = {layer: {"calls": 0, "self_s": 0.0}
                  for layer in (*LAYERS, ROOT_LAYER)}
        for layer, parent, start, end, entry in self.spans:
            duration = end - start
            totals[layer]["self_s"] += duration
            if parent >= 0:
                totals[self.spans[parent][0]]["self_s"] -= duration
            if entry:
                totals[layer]["calls"] += 1
        return totals


def _count_fiber(tracer: Tracer, args, result) -> None:
    d, n, b = args[0], args[1], args[2]
    tracer.counters["fibers.raw_calls"] += 1
    tracer.counters["fibers.enumerate.points"] += len(result)
    tracer.fiber_keys.add((d, n, tuple(b)))


def _count_entries(tracer: Tracer, args, result) -> None:
    tracer.counters["exactlin.eliminate.entries"] += args[0].rows * args[0].cols


def _count_records(tracer: Tracer, args, result) -> None:
    tracer.counters["verify.records"] += len(result.records)


# Work counters taken at the layer boundaries, by wrapped function name.
COUNTERS = {
    "_raw_fiber": _count_fiber,
    "rational_rank": _count_entries, "rational_nullspace": _count_entries,
    "rational_rref": _count_entries,
    "verify_link": _count_records, "verify_decomposition": _count_records,
}


def _wrap(fn, layer: str, name: str, tracer: Tracer):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                span = tracer.open(layer, first)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                first = False
                yield value
        return gen_wrapper

    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(tracer, args, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS at every binding site."""
    for module_name, _ in LAYERS.values():
        importlib.import_module(module_name)
    modules = [m for name, m in list(sys.modules.items())
               if name == "verolink" or name.startswith("verolink.")]
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules[module_name]
        for qualified in names:
            owner_name, _, attr = qualified.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, _wrap(getattr(owner, attr), layer, attr, tracer))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(original, layer, attr, tracer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
