"""Turn one child result into the benchmark's named metrics.

``end_to_end`` is what a user of the system sees; ``per_layer`` attributes
a traced run to the program's layers.  Names, units and directions are
declared once in ``BENCHMARK.json``; this module computes the values.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

#: Window, in ranks, around a percentile that must stay inside one mode.
RANK_MARGIN = 5
COMPRESSORS = ("sz", "sz-interp", "zfp", "mgard")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed value, never an interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ok(ops: list[dict]) -> list[dict]:
    return [op for op in ops if op["error"] is None]


def op_in_band(op: dict) -> bool:
    """Ops with no target count as met."""
    if op.get("target") is None:
        return True
    return (op["target"] * (1.0 - op["tolerance"]) <= op["ratio"]
            <= op["target"] * (1.0 + op["tolerance"]))


def credited_bytes(op: dict) -> float:
    """Stored bytes, with an in-band fixed-ratio op credited exactly its
    target: any in-band value is equally right, so it must not move the metric."""
    if op.get("target") is not None and op_in_band(op):
        return op["in_bytes"] / op["target"]
    return op["stored_bytes"]


def block_rate_mb_s(ops: list[dict], key: str, period: int, clients: int) -> float:
    """Median, over consecutive blocks of ``period`` ops, of bytes per second.

    The blocks of a phase have the same composition (a pass, a field, a file,
    a round of the job mix), so their rates estimate one quantity and the
    median drops a block that a stall of the machine hit.  In a closed loop
    every client is always waiting on exactly one op, so a block's wall time is
    its ops' summed latency over the number of clients.  A failed op adds its
    time and no bytes.
    """
    period = max(1, min(period, len(ops)))
    rates = []
    for start in range(0, len(ops) - period + 1, period):
        block = ops[start:start + period]
        rates.append(sum(op.get(key, 0) for op in block if op["error"] is None)
                     / (sum(op["seconds"] for op in block) / clients))
    return statistics.median(rates) / 1e6


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    compress = _ok(result["compress_ops"])
    latencies = [op["seconds"] for op in compress]
    compress_period, decompress_period = result["periods"]
    return {
        "setup_s": setup_s,
        "compress_mb_s": block_rate_mb_s(result["compress_ops"], "in_bytes", compress_period,
                                         result["clients"]),
        "decompress_mb_s": block_rate_mb_s(result["decompress_ops"], "out_bytes",
                                           decompress_period, result["clients"]),
        "op_p50_s": percentile(latencies, 0.50),
        "op_p90_s": percentile(latencies, 0.90),
        "in_band_frac": sum(op_in_band(op) for op in compress) / len(compress),
        "compression_ratio": sum(op["in_bytes"] for op in compress)
        / sum(credited_bytes(op) for op in compress),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def failed_ops(result: dict) -> tuple[int, int]:
    """``(attempted, failed)``: ops that raised or came back as an error, plus
    verification checks that did not hold."""
    ops = result["compress_ops"] + result["decompress_ops"]
    failed = sum(op["error"] is not None for op in ops) + len(result["check_failures"])
    return len(ops), failed


def rank_violations(result: dict) -> list[str]:
    """Percentiles that sit within RANK_MARGIN ranks of ops from a class whose
    median differs by more than 2x: such a percentile flips between modes."""
    ops = sorted(_ok(result["compress_ops"]), key=lambda op: op["seconds"])
    if len(ops) < 4 * RANK_MARGIN:
        return []
    by_class: dict[str, list[float]] = {}
    for op in ops:
        by_class.setdefault(op["cls"], []).append(op["seconds"])
    median = {cls: statistics.median(vals) for cls, vals in by_class.items()}
    out = []
    for label, q in (("op_p50_s", 0.50), ("op_p90_s", 0.90)):
        rank = max(0, math.ceil(q * len(ops)) - 1)
        here = median[ops[rank]["cls"]]
        for other in ops[max(0, rank - RANK_MARGIN): rank + RANK_MARGIN + 1]:
            there = median[other["cls"]]
            if max(here, there) > 2.0 * min(here, there):
                out.append(f"{label}: rank {rank + 1}/{len(ops)} is in class "
                           f"{ops[rank]['cls']} (median {here:.4g} s) within {RANK_MARGIN} "
                           f"ranks of class {other['cls']} (median {there:.4g} s)")
                break
    return out


# ---------------------------------------------------------------------------
# per-layer
# ---------------------------------------------------------------------------

def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _stage(stats_list: list[dict], stage: str, field: str) -> float:
    """Count-weighted mean over nodes of a ``repro_stage_seconds`` summary field
    (``sum`` is added up instead)."""
    rows = [s["metrics"].get(f'repro_stage_seconds{{stage="{stage}"}}') for s in stats_list]
    rows = [r for r in rows if r and r["count"]]
    if not rows:
        return 0.0
    if field == "sum":
        return sum(r["sum"] for r in rows)
    return sum(r[field] * r["count"] for r in rows) / sum(r["count"] for r in rows)


def per_layer(result: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did no work)."""
    spans = result["spans"]
    agg = spans["aggregates"]
    records = spans["records"]
    extras = result.get("extras", {})
    compress = _ok(result["compress_ops"])
    decompress = _ok(result["decompress_ops"])
    phase_wall = result["compress_wall_s"] + result["decompress_wall_s"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def own(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def recs(name):
        return [r for r in records if r["name"] == name]

    def attrs(name):
        return [r["attrs"] for r in recs(name) if r["attrs"]]

    m: dict[str, float] = {}

    # codecs
    m["codecs.huffman_encode_s"] = own("codecs.huffman_encode")
    m["codecs.huffman_decode_s"] = own("codecs.huffman_decode")
    m["codecs.huffman_msym"] = sum(
        a["symbols"] for n in ("codecs.huffman_encode", "codecs.huffman_decode")
        for a in attrs(n)) / 1e6
    m["codecs.pack_bits_s"] = own("codecs.pack_bits")
    m["codecs.unpack_bits_s"] = own("codecs.unpack_bits")
    m["codecs.bytecodec_s"] = own("codecs.bytecodec")
    m["codecs.container_s"] = own("codecs.container")

    # sz / zfp / mgard
    m["sz.compress_self_s"] = own("sz.compress")
    m["sz.decompress_self_s"] = own("sz.decompress")
    m["sz.predict_plane_s"] = own("sz.predict_plane")
    m["sz.predict_plane_calls"] = calls("sz.predict_plane")
    m["sz.quantize_s"] = own("sz.quantize")
    m["sz.dequantize_s"] = own("sz.dequantize")
    m["sz.regression_s"] = own("sz.regression")
    m["sz.interp_compress_self_s"] = own("sz.interp_compress")
    m["sz.interp_decompress_self_s"] = own("sz.interp_decompress")
    m["zfp.compress_self_s"] = own("zfp.compress")
    m["zfp.decompress_self_s"] = own("zfp.decompress")
    m["zfp.transform_s"] = own("zfp.transform")
    m["zfp.fixedpoint_s"] = own("zfp.fixedpoint")
    m["zfp.embedded_s"] = own("zfp.embedded")
    m["mgard.compress_self_s"] = own("mgard.compress")
    m["mgard.decompress_self_s"] = own("mgard.decompress")
    m["mgard.decompose_s"] = own("mgard.decompose")
    m["mgard.recompose_s"] = own("mgard.recompose")

    # pressio: one compress()/decompress() call of any compressor
    compress_spans = ("sz.compress", "sz.interp_compress", "zfp.compress", "mgard.compress")
    decompress_spans = ("sz.decompress", "sz.interp_decompress", "zfp.decompress",
                        "mgard.decompress")
    m["pressio.compress_calls"] = sum(calls(n) for n in compress_spans)
    m["pressio.compress_s"] = sum(total(n) for n in compress_spans)
    m["pressio.decompress_calls"] = sum(calls(n) for n in decompress_spans)
    m["pressio.decompress_s"] = sum(total(n) for n in decompress_spans)
    m["pressio.ratio_fn_self_s"] = own("pressio.ratio_fn")
    for name in COMPRESSORS:  # fixed_bound's op classes are "<compressor>/<n>d"
        for phase, ops, key in (("compress", compress, "in_bytes"),
                                ("decompress", decompress, "out_bytes")):
            mine = [op for op in ops if op["cls"] in (f"{name}/1d", f"{name}/2d", f"{name}/3d")]
            m[f"pressio.{name}_{phase}_mb_s"] = _frac(
                sum(op[key] for op in mine) / 1e6, sum(op["seconds"] for op in mine))
    one_d = [op for op in compress if op["cls"] == "sz/1d"]
    m["pressio.sz_1d_compress_mb_s"] = _frac(
        sum(op["in_bytes"] for op in one_d) / 1e6, sum(op["seconds"] for op in one_d))

    # core: one span per search
    # Parents precede their children in ``records``, so one forward pass
    # finds each span's nearest enclosing search.
    train_of = [-1] * len(records)
    for position, rec in enumerate(records):
        if rec["name"] == "core.train":
            train_of[position] = position
        elif rec["parent"] >= 0:
            train_of[position] = train_of[rec["parent"]]
    trains = recs("core.train")
    inside = {name: Counter(train_of[position] for position, rec in enumerate(records)
                            if rec["name"] == name and train_of[position] >= 0)
              for name in ("cache.evaluate", "cache.probe")}
    probes_of = [inside["cache.evaluate"][position] for position, rec in enumerate(records)
                 if rec["name"] == "core.train"]
    train_attrs = [r["attrs"] for r in trains if r["attrs"]]
    train_wall = sum(r["end"] - r["start"] for r in trains)
    m["core.tunes"] = len(trains)
    m["core.train_self_s"] = own("core.train", "core.worker_task")
    m["core.probes"] = sum(probes_of)
    m["core.compressor_calls"] = sum(inside["cache.probe"].values())
    m["core.probes_per_tune_p50"] = _p(probes_of, 0.50)
    m["core.probes_per_tune_p90"] = _p(probes_of, 0.90)
    m["core.feasible_frac"] = _frac(sum(a["feasible"] for a in train_attrs), len(train_attrs))
    m["core.ratio_rel_err_p50"] = _p(
        [abs(a["ratio"] - a["target"]) / a["target"] for a in train_attrs], 0.50)
    m["core.search_overhead_frac"] = (
        1.0 - _frac(sum(a["compress_seconds"] for a in train_attrs), train_wall)
        if train_wall else 0.0)
    predicted = [a for a in train_attrs if a["predicted"]]
    m["core.prediction_hit_frac"] = _frac(sum(a["used_prediction"] for a in predicted),
                                          len(predicted))
    fraz_wall = total("core.fraz_compress")
    searching = sum(r["end"] - r["start"] for r in trains
                    if r["parent"] >= 0 and records[r["parent"]]["name"] == "core.fraz_compress")
    m["core.final_compress_s"] = fraz_wall - searching
    m["core.fixed_ratio_tax"] = _frac(fraz_wall, fraz_wall - searching)

    # optimize
    m["optimize.calls"] = calls("optimize.find_global_min")
    m["optimize.self_s"] = own("optimize.find_global_min")
    m["optimize.objective_evals"] = calls("pressio.ratio_fn")

    # cache
    lookups = recs("cache.get")
    m["cache.lookups"] = len(lookups)
    m["cache.hits"] = sum(1 for r in lookups if r["attrs"] and r["attrs"]["hit"])
    m["cache.hit_frac"] = _frac(m["cache.hits"], len(lookups))
    m["cache.self_s"] = own("cache.evaluate", "cache.get", "cache.put", "cache.key_for",
                            "cache.probe")
    m["cache.fingerprint_s"] = own("cache.fingerprint")

    # parallel
    dispatched = attrs("parallel.dispatch")
    m["parallel.dispatch_self_s"] = own("parallel.dispatch", "parallel.region_task")
    m["parallel.region_tasks_run"] = calls("parallel.region_task")
    m["parallel.region_tasks_cancelled"] = sum(a["offered"] - a["run"] for a in dispatched)

    # stream / io
    streams = attrs("stream.compress")
    m["stream.compress_s"] = total("stream.compress")
    m["stream.decompress_s"] = total("stream.decompress")
    m["stream.train_s"] = sum(a["train_seconds"] for a in streams)
    m["stream.chunks"] = sum(a["chunks"] for a in streams)
    m["stream.retrains"] = sum(a["retrains"] for a in streams)
    m["stream.in_band_chunk_frac"] = _frac(sum(a["in_band_chunks"] for a in streams),
                                           m["stream.chunks"])
    m["stream.overhead_frac"] = (
        1.0 - _frac(m["pressio.compress_s"], m["stream.compress_s"])
        if m["stream.compress_s"] else 0.0)
    m["io.read_s"] = own("io.read")
    m["io.write_s"] = own("io.write")

    # api: the serve mix's bodies run directly, in the child
    direct = extras.get("api_execute_seconds", [])
    m["api.execute_p50_s"] = _p(direct, 0.50)
    m["api.execute_self_s"] = own("api.execute")

    # serve: client-side spans plus the service's own /stats
    job_p50 = _p([op["seconds"] for op in compress], 0.50)
    nodes = extras.get("scrape", {}).get("nodes", [])
    front = extras.get("scrape", {}).get("front", {})
    through_service = bool(nodes)
    submits = [r["end"] - r["start"] for r in recs("serve.submit")]
    m["serve.submit_p50_s"] = _p(submits, 0.50)
    m["serve.result_wait_p50_s"] = _p([r["end"] - r["start"] for r in recs("serve.result")], 0.50)
    m["serve.tax_p50_s"] = job_p50 - m["api.execute_p50_s"] if through_service else 0.0
    m["serve.queue_wait_p50_s"] = _stage(nodes, "queue_wait", "p50")
    m["serve.run_p50_s"] = _stage(nodes, "run", "p50")
    m["serve.compressor_frac"] = _frac(
        sum(_stage(nodes, stage, "sum") for stage in ("search", "encode", "decode")),
        sum(op["seconds"] for op in compress + decompress)) if through_service else 0.0
    m["serve.coalesced"] = sum(n["jobs"]["coalesced"] for n in nodes)
    searched = sum(n["search"]["cache_hits"] + n["search"]["cache_misses"] for n in nodes)
    m["serve.cache_hit_frac"] = _frac(sum(n["search"]["cache_hits"] for n in nodes), searched)
    m["serve.rejected"] = sum(n["queue"].get("rejected", 0) for n in nodes)
    m["serve.retried"] = sum(n["jobs"]["retried"] for n in nodes)

    # gateway: its /stats, when the front door is one
    fleet = "fleet" in front
    m["gateway.submit_p50_s"] = m["serve.submit_p50_s"] if fleet else 0.0
    m["gateway.reroutes"] = front["jobs"]["reroutes"] if fleet else 0
    m["gateway.requeued"] = front["jobs"]["requeued"] if fleet else 0
    per_node = [n["jobs"]["submitted"] for n in nodes]
    m["gateway.node_share_max_frac"] = _frac(max(per_node), sum(per_node)) if fleet else 0.0

    # obs
    m["obs.metrics_render_s"] = extras.get("scrape", {}).get("metrics_render_s", 0.0)
    untraced = extras.get("untraced_service_wall_s")
    m["obs.tracing_tax_frac"] = result["compress_wall_s"] / untraced - 1.0 if untraced else 0.0

    # bench: the benchmark's own instruments
    m["bench.spans_missing"] = len(spans["missing"])
    m["bench.span_coverage_frac"] = _frac(result["span_top_seconds"],
                                           phase_wall * result["clients"])
    return m
