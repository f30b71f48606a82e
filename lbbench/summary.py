"""Summary statistics for the lbbench driver's raw output.

Pure functions, no I/O: run.py feeds them the driver's JSON document and
the metric specs from BENCHMARK.json; test_summary.py checks them on known
samples.
"""

import math

# Span name -> per-layer metric, per workload, for the spans of ops (op id
# >= 0) and of set-ups (op id < 0). A span contributes its self time (its
# duration minus its children's) to the mapped metric. An op or set-up may
# have a span named "op" covering all of it; the part of it no other span
# covers goes to the driver's residual layer, so the layers add up to the
# op exactly. Without an "op" span, the total is the sum of the top-level
# spans.
_CAMPAIGN_JOBS = {
    "lowerbound.build": "lowerbound.build_ms",
    "maxis.solve": "maxis.solve_ms",
    "campaign.check": "campaign.check_ms",
    "campaign.replay": "campaign.replay_ms",
}
LAYER_SPANS = {
    "theorem5": {
        "lowerbound.instantiate": "lowerbound.instantiate_ms",
        "congest.network_run": "congest.engine_self_ms",
        "congest.program": "congest.program_self_ms",
        "maxis.solve": "maxis.solve_ms",
    },
    "campaign_warm": _CAMPAIGN_JOBS,
    "scale_flood": {
        "congest.program": "congest.program_ms",
    },
}
SETUP_SPANS = {
    "theorem5": {},
    "campaign_warm": _CAMPAIGN_JOBS,
    "scale_flood": {
        "lowerbound.implicit_build": "lowerbound.implicit_build_ms",
        "congest.network_init": "congest.network_init_ms",
    },
}


def percentile(samples, q):
    """The q-th percentile (0..100) by linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile outside 0..100")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fastest_half(op_ms):
    """Ids of the faster half (at least one) of ops, by op time."""
    ranked = sorted(op_ms, key=lambda op: (op_ms[op], op))
    return ranked[: max(1, len(ranked) // 2)]


def group_layers(spans, mapping, residual):
    """Layer self times in ms of each op (or set-up) in `spans`.

    Returns (layers_by_id, total_ms_by_id)."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)

    total = {s["op"]: s["dur_ns"] / 1e6 for s in spans if s["name"] == "op"}
    has_op = set(total)
    layers = {}
    for i, s in enumerate(spans):
        group = s["op"]
        layer = layers.setdefault(group, {})
        if s["name"] == "op":
            continue
        if s["parent"] < 0 and group not in has_op:
            total[group] = total.get(group, 0.0) + s["dur_ns"] / 1e6
        metric = mapping.get(s["name"])
        if metric is None:
            raise ValueError("span %r has no layer here" % s["name"])
        own = s["dur_ns"] - sum(spans[c]["dur_ns"]
                                for c in children.get(i, []))
        layer[metric] = layer.get(metric, 0.0) + own / 1e6
    if residual:
        for group, layer in layers.items():
            if group not in has_op:
                raise ValueError("op %d has layer spans but no op span" % group)
            layer[residual] = total[group] - sum(layer.values())
    return layers, total


def mean_over(ids, table):
    """Mean of each key of table[id] over ids (missing keys count as 0)."""
    keys = set()
    for i in ids:
        keys.update(table[i])
    return {k: sum(table[i].get(k, 0.0) for i in ids) / len(ids) for k in keys}


def end_to_end(raw):
    """The end-to-end metric values of an untraced run.

    Set-up, like an op, is timed as a low quantile of its repetitions:
    interference only ever adds time, and the median of a run's set-ups
    moved by more than the bound between two sets of runs of one code."""
    return {
        "setup_s": percentile(raw["setup_s"], 10),
        "op_ms_p10": percentile(raw["op_ms"], 10),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer metric values of a traced run, and the layer sum check.

    Layer times are means over the faster half of the traced ops (set-up
    layers: of the set-ups), so that they add up to `trace.op_ms`, the mean
    op time over the same ops (`trace.setup_ms` for set-ups)."""
    workload = raw["workload"]
    spans = raw["spans"]
    ops, op_ms = group_layers([s for s in spans if s["op"] >= 0],
                              LAYER_SPANS[workload], raw["residual_layer"])
    setups, setup_ms = group_layers([s for s in spans if s["op"] < 0],
                                    SETUP_SPANS[workload],
                                    raw["setup_residual_layer"])
    values = dict(raw["layer_values"])
    chosen = fastest_half(op_ms)
    layers = mean_over(chosen, ops)
    values.update(layers)
    values["trace.op_ms"] = sum(op_ms[i] for i in chosen) / len(chosen)
    check = {
        "residual_layer": raw["residual_layer"],
        "op_ms": values["trace.op_ms"],
        "layer_sum_ms": sum(layers.values()),
        "ops_averaged": len(chosen),
    }
    if setups:
        picked = fastest_half(setup_ms)
        setup_layers = mean_over(picked, setups)
        values.update(setup_layers)
        values["trace.setup_ms"] = (
            sum(setup_ms[i] for i in picked) / len(picked))
        check.update({
            "setup_residual_layer": raw["setup_residual_layer"],
            "setup_ms": values["trace.setup_ms"],
            "setup_layer_sum_ms": sum(setup_layers.values()),
        })
    if raw["alt_ms"]:
        # Cold campaign runs on disk (the set-ups) minus in memory.
        half = sorted(raw["alt_ms"])[: max(1, len(raw["alt_ms"]) // 2)]
        values["campaign.disk_cache_ms"] = (
            values["trace.setup_ms"] - sum(half) / len(half))
    traced = percentile(raw["traced_op_ms"], 10)
    untraced = percentile(raw["op_ms"], 10)
    values["trace.op_ms_p10"] = traced
    values["trace.untraced_op_ms_p10"] = untraced
    values["trace.overhead_ms"] = traced - untraced
    # The median op time spreads too much from run to run to gate on, so
    # it is reported here, from the untraced ops of the traced run.
    values["op_ms_p50"] = percentile(raw["op_ms"], 50)
    values["trace.samples"] = len(raw["traced_op_ms"])
    return values, check


_TRACE = {"op_ms_p50", "trace.op_ms", "trace.op_ms_p10",
          "trace.untraced_op_ms_p10", "trace.overhead_ms", "trace.samples"}

# The per-layer metrics each workload measures. The other per-layer metrics
# belong to layers the workload never enters and read 0 there.
MEASURED = {
    "theorem5": _TRACE | {
        "lowerbound.instantiate_ms", "congest.engine_self_ms",
        "congest.program_self_ms", "maxis.solve_ms", "maxis.solve_calls",
        "comm.board_ms", "comm.board_bytes_retained",
        "congest.ns_per_message", "congest.rounds", "congest.messages",
        "congest.bits", "comm.board_posts", "comm.board_bits",
        "comm.budget_use", "comm.theorem5_budget_bits"},
    "campaign_warm": _TRACE | {
        "campaign.replay_ms", "campaign.other_ms", "campaign.jobs",
        "campaign.cache_hits", "trace.setup_ms", "lowerbound.build_ms",
        "maxis.solve_ms", "campaign.check_ms", "campaign.cold_other_ms",
        "campaign.disk_cache_ms", "campaign.cache_writes",
        "campaign.cache_misses", "campaign.cache_bytes"},
    "scale_flood": _TRACE | {
        "trace.setup_ms", "lowerbound.implicit_build_ms",
        "congest.network_init_ms", "congest.round_engine_self_ms",
        "congest.program_ms", "graph.explicit_edges", "graph.implicit_edges",
        "graph.blocks", "congest.messages_per_round",
        "congest.rss_growth_mb"},
}


def to_metrics(values, specs, measured):
    """Metric objects for `specs` (BENCHMARK.json entries). Every name in
    `measured` must have a value; the rest read 0."""
    missing = sorted(set(measured) - set(values))
    if missing:
        raise ValueError("run did not measure: %s" % ", ".join(missing))
    return {
        s["name"]: {"value": float(values.get(s["name"], 0.0)),
                    "unit": s["unit"]}
        for s in specs
    }


def validate_metrics(metrics, specs):
    """Raise ValueError unless `metrics` holds exactly the named metrics
    of `specs`, each a finite number with the declared unit."""
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be an object")
    want = {s["name"]: s["unit"] for s in specs}
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing:
        raise ValueError("missing metrics: %s" % ", ".join(missing))
    if extra:
        raise ValueError("unexpected metrics: %s" % ", ".join(extra))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s must have exactly value and unit" % name)
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError("metric %s value is not a number" % name)
        if not math.isfinite(v):
            raise ValueError("metric %s value is not finite" % name)
        if m["unit"] != want[name]:
            raise ValueError("metric %s unit %r, expected %r"
                             % (name, m["unit"], want[name]))


def compare_fingerprint(stored, current):
    """Keys whose exact counts differ between two runs of the same seed
    (keys present in only one run are not compared)."""
    return sorted(k for k in set(stored) & set(current)
                  if stored[k] != current[k])
