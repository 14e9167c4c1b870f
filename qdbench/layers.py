"""Per-layer metrics from the spans of traced jobs.

``job_totals(dump)`` folds one job's spans into raw sums (counts and
nanoseconds).  ``finish(totals)`` turns the sums of a set of jobs into the
reported per-layer metrics.  Definitions:

* self time: a span's duration minus its child spans and minus the tracer's
  own bookkeeping inside it;
* ``<layer>.incl_s``: duration of the spans of that layer that have no
  ancestor in the same layer;
* a ``forms``/``mock`` call is a build when ``series.mul``, ``inverse``,
  ``pow`` or ``from_terms`` runs beneath it; otherwise the cache served it;
* an invariants cell is an ``uplane_D``, ``goettsche_phi`` or
  ``criterion_check`` span with no cell above it;
* computed counts (``nominal_products``, ``window_terms``) come from the
  operands, not from the clock.
"""

from __future__ import annotations

BUILD_OPS = {"series.mul", "series.inverse", "series.pow",
             "series.other.from_terms"}
CELL_OPS = {"invariants.uplane_D", "invariants.goettsche_phi",
            "invariants.criterion_check"}
PAIRING = "invariants.pair_constant_term"
NESTED_LAYERS = {"forms": 1, "mock": 2, "sw": 4, "invariants": 8}  # bit masks

# Raw sums that are counts: they must repeat exactly between two traced runs.
COUNT_KEYS = (
    "series.mul.calls", "series.mul.nominal_products",
    "series.mul.dense_products", "series.inverse.calls",
    "series.inverse.window_terms", "series.inverse.divisor_nonzero",
    "series.pow.calls", "series.other.calls", "exact.cyclo.calls",
    "forms.calls", "forms.builds", "mock.calls", "mock.builds", "sw.calls",
    "invariants.calls", "invariants.cells", "invariants.pairings",
    "invariants.cell_requests", "cli.calls", "cli.output_bytes",
)
TIME_KEYS = (
    "series.mul.self_ns", "series.inverse.self_ns", "series.pow.self_ns",
    "series.other.self_ns", "exact.cyclo.self_ns", "forms.self_ns",
    "forms.incl_ns", "mock.self_ns", "mock.incl_ns", "sw.self_ns",
    "sw.incl_ns", "invariants.self_ns", "invariants.incl_ns",
    "invariants.pair_ns", "cli.self_ns",
)

# Reported per-layer metrics, in BENCHMARK.json order: (name, unit).
METRICS = (
    ("series.mul.calls", "count"), ("series.mul.self_s", "s"),
    ("series.mul.nominal_products", "count"),
    ("series.mul.products_per_s", "1/s"), ("series.mul.dense_share", "ratio"),
    ("series.inverse.calls", "count"), ("series.inverse.self_s", "s"),
    ("series.inverse.window_terms", "count"),
    ("series.inverse.divisor_density", "ratio"),
    ("series.pow.calls", "count"), ("series.pow.self_s", "s"),
    ("series.other.calls", "count"), ("series.other.self_s", "s"),
    ("exact.cyclo.calls", "count"), ("exact.cyclo.self_s", "s"),
    ("forms.calls", "count"), ("forms.builds", "count"),
    ("forms.self_s", "s"), ("forms.incl_s", "s"),
    ("mock.calls", "count"), ("mock.builds", "count"),
    ("mock.self_s", "s"), ("mock.incl_s", "s"),
    ("sw.calls", "count"), ("sw.self_s", "s"), ("sw.incl_s", "s"),
    ("invariants.cells", "count"), ("invariants.pairings", "count"),
    ("invariants.pair_s", "s"), ("invariants.self_s", "s"),
    ("invariants.incl_s", "s"), ("invariants.requests_per_cell", "ratio"),
    ("cli.self_s", "s"), ("cli.output_bytes", "count"),
    ("trace.overhead", "ratio"),
)


def _layer(name: str) -> str:
    """'series.other.add' -> 'series.other'; 'forms.delta' -> 'forms'."""
    head, _, rest = name.partition(".")
    if head in ("series", "exact"):
        return head + "." + rest.partition(".")[0]
    return head


def job_totals(dump: dict, output_bytes: int) -> dict:
    names = dump["names"]
    spans = dump["spans"]
    n = len(spans)
    layer_of = [_layer(name) for name in names]
    child_ns = [0] * n
    builds_below = [False] * n
    for i in range(n - 1, -1, -1):  # children come after their parent
        name_id, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start
            if builds_below[i] or names[name_id] in BUILD_OPS:
                builds_below[parent] = True

    totals = dict.fromkeys(COUNT_KEYS + TIME_KEYS, 0)
    totals["cli.output_bytes"] = output_bytes
    bit_of = [NESTED_LAYERS.get(layer, 0) for layer in layer_of]
    above = [0] * n  # NESTED_LAYERS bits of the ancestors of each span
    in_cell = [False] * n
    for i, (name_id, start, end, parent, overhead, counts) in enumerate(spans):
        name, layer = names[name_id], layer_of[name_id]
        if parent >= 0:
            parent_id = spans[parent][0]
            above[i] = above[parent] | bit_of[parent_id]
            in_cell[i] = in_cell[parent] or names[parent_id] in CELL_OPS
        self_ns = end - start - child_ns[i] - overhead
        totals[layer + ".calls"] += 1
        totals[layer + ".self_ns"] += self_ns
        if bit_of[name_id] and not above[i] & bit_of[name_id]:
            totals[layer + ".incl_ns"] += end - start
        if layer in ("forms", "mock"):
            totals[layer + ".builds"] += builds_below[i]
            totals["invariants.cell_requests"] += in_cell[i]
        if name in CELL_OPS and not in_cell[i]:
            totals["invariants.cells"] += 1
        elif name == PAIRING:
            totals["invariants.pairings"] += 1
            totals["invariants.pair_ns"] += self_ns
        if counts is not None:
            if layer == "series.mul":
                totals["series.mul.nominal_products"] += counts[0]
                totals["series.mul.dense_products"] += counts[1]
            else:
                totals["series.inverse.window_terms"] += counts[0]
                totals["series.inverse.divisor_nonzero"] += counts[1]
    return totals


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def finish(t: dict, overhead: float) -> dict:
    """Reported metrics from summed raw totals; values keyed by METRICS name."""
    out = {}
    for name, unit in METRICS:
        if name.endswith("_s") and name[:-2] + "_ns" in t:
            out[name] = t[name[:-2] + "_ns"] / 1e9
        elif name in t:
            out[name] = t[name]
    out["series.mul.products_per_s"] = _ratio(
        t["series.mul.nominal_products"], t["series.mul.self_ns"] / 1e9)
    out["series.mul.dense_share"] = _ratio(
        t["series.mul.dense_products"], t["series.mul.nominal_products"])
    out["series.inverse.divisor_density"] = _ratio(
        t["series.inverse.divisor_nonzero"], t["series.inverse.window_terms"])
    out["invariants.requests_per_cell"] = _ratio(
        t["invariants.cell_requests"], t["invariants.cells"])
    out["trace.overhead"] = overhead
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS}
