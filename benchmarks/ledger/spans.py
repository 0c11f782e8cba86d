"""Run-time timing wrappers around each layer's functions (traced runs only).

Nothing under ``src/`` is edited: :func:`install` replaces, in the child
process that runs a workload, every callable named in :data:`SPAN_TABLE`
with a wrapper that records a span.  A target that no longer resolves is
skipped and reported (``bench.spans_missing``), so a refactor of the
program cannot break the benchmark it is not allowed to edit.

A span's *self time* is its duration minus the time its child spans
cover; it is accumulated when the span closes, per thread, so the sum of
self times over all spans of a thread equals the time that thread spent
inside wrapped code.  Spans of targets marked ``leaf`` (kernel-internal
functions called once per wavefront plane or bit plane, 10^4-10^5 times
per op) are only aggregated; every other span is also kept as a record
``(name, start, end, parent, op, attrs)`` and written to ``--out``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: The program's layers, in dependency order (its package names).
LAYERS = ("codecs", "sz", "zfp", "mgard", "pressio", "optimize", "core", "cache",
          "parallel", "stream", "io", "api", "serve", "gateway", "obs")


def _train_attrs(args, kwargs, result):
    return {
        "feasible": bool(result.feasible),
        "ratio": float(result.ratio),
        "target": float(result.target_ratio),
        "used_prediction": bool(result.used_prediction),
        "predicted": kwargs.get("prediction") is not None,
        "compress_seconds": float(result.compress_seconds),
    }


def _stream_attrs(args, kwargs, result):
    return {
        "train_seconds": float(result.train_seconds),
        "chunks": int(result.n_chunks),
        "retrains": int(result.retrains),
        "in_band_chunks": int(result.in_band_chunks),
    }


#: ``(span name, "module:attr[.attr]", leaf)``.  The part of the name
#: before the first dot is the layer.  Several targets may share a name.
SPAN_TABLE = (
    # codecs
    ("codecs.huffman_encode", "repro.codecs.huffman:HuffmanCodec.encode", False),
    ("codecs.huffman_decode", "repro.codecs.huffman:HuffmanCodec.decode", False),
    ("codecs.pack_bits", "repro.codecs.bitstream:pack_bits", True),
    ("codecs.unpack_bits", "repro.codecs.bitstream:unpack_bits", True),
    ("codecs.bytecodec", "repro.codecs.zlib_codec:ZlibCodec.compress", True),
    ("codecs.bytecodec", "repro.codecs.zlib_codec:ZlibCodec.decompress", True),
    ("codecs.bytecodec", "repro.codecs.lz77:LZ77Codec.compress", True),
    ("codecs.bytecodec", "repro.codecs.lz77:LZ77Codec.decompress", True),
    ("codecs.container", "repro.codecs.container:Container.tobytes", True),
    ("codecs.container", "repro.codecs.container:Container.frombytes", True),
    ("codecs.container", "repro.codecs.container:ContainerWriter.add", True),
    ("codecs.container", "repro.codecs.container:ContainerReader.get", True),
    # sz
    ("sz.compress", "repro.sz.compressor:SZCompressor.compress", False),
    ("sz.decompress", "repro.sz.compressor:SZCompressor.decompress", False),
    ("sz.interp_compress", "repro.sz.interpolation:SZInterpolationCompressor.compress", False),
    ("sz.interp_decompress", "repro.sz.interpolation:SZInterpolationCompressor.decompress", False),
    ("sz.predict_plane", "repro.sz.lorenzo:WavefrontPlan.predict_plane", True),
    ("sz.quantize", "repro.sz.quantizer:quantize", True),
    ("sz.dequantize", "repro.sz.quantizer:dequantize", True),
    ("sz.regression", "repro.sz.regression:fit_full_blocks", True),
    ("sz.regression", "repro.sz.regression:predict_full_blocks", True),
    # zfp
    ("zfp.compress", "repro.zfp.compressor:ZFPCompressor.compress", False),
    ("zfp.decompress", "repro.zfp.compressor:ZFPCompressor.decompress", False),
    ("zfp.transform", "repro.zfp.transform:fwd_transform", True),
    ("zfp.transform", "repro.zfp.transform:inv_transform", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:block_exponents", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:to_fixed", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:from_fixed", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:to_negabinary", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:from_negabinary", True),
    ("zfp.fixedpoint", "repro.zfp.fixedpoint:msb_positions", True),
    ("zfp.embedded", "repro.zfp.embedded:encode_plane_bits", True),
    ("zfp.embedded", "repro.zfp.embedded:decode_plane_bits", True),
    ("zfp.embedded", "repro.zfp.embedded:unit_layout", True),
    ("zfp.embedded", "repro.zfp.embedded:unit_counts", True),
    ("zfp.embedded", "repro.zfp.embedded:suffix_max", True),
    # mgard
    ("mgard.compress", "repro.mgard.compressor:MGARDCompressor.compress", False),
    ("mgard.decompress", "repro.mgard.compressor:MGARDCompressor.decompress", False),
    ("mgard.decompose", "repro.mgard.decompose:decompose", True),
    ("mgard.recompose", "repro.mgard.decompose:recompose", True),
    # pressio (the compress/decompress totals are sums over the four
    # compressors' spans above; only the search closure is its own span)
    ("pressio.ratio_fn", "repro.pressio.closures:RatioFunction.__call__", False),
    # optimize
    ("optimize.find_global_min", "repro.optimize.global_search:find_global_min", False),
    # core
    ("core.fraz_compress", "repro.core.fraz:FRaZ.compress", False),
    ("core.train", "repro.core.training:train", False),
    ("core.worker_task", "repro.core.worker:worker_task", False),
    # cache
    ("cache.evaluate", "repro.cache.evalcache:EvalCache.evaluate", False),
    ("cache.get", "repro.cache.evalcache:EvalCache.get", False),
    ("cache.put", "repro.cache.evalcache:EvalCache.put", True),
    ("cache.key_for", "repro.cache.evalcache:EvalCache.key_for", True),
    ("cache.fingerprint", "repro.cache.keys:fingerprint_array", True),
    ("cache.probe", "repro.cache.evalcache:_evaluate_probe", False),
    # parallel
    ("parallel.dispatch", "repro.parallel.executor:SerialExecutor.run_cancellable", False),
    ("parallel.dispatch", "repro.parallel.executor:BaseExecutor.map_all", False),
    ("parallel.region_task", "repro.core.training:_run_worker", False),
    # stream
    ("stream.compress", "repro.stream.pipeline:stream_compress", False),
    ("stream.decompress", "repro.stream.pipeline:stream_decompress", False),
    # io
    ("io.read", "repro.stream.chunks:ChunkReader.read", True),
    ("io.read", "repro.io.files:load_field", False),
    ("io.write", "repro.stream.container:ShardWriter.write_chunk", True),
    ("io.write", "repro.io.files:save_field", False),
    # api
    ("api.execute", "repro.api.execute:execute", False),
    # serve / gateway: client-side only; the jobs run in pool processes
    ("serve.submit", "repro.serve.client:ServiceClient.submit", False),
    ("serve.result", "repro.serve.client:ServiceClient.result", False),
)

#: Attributes copied from a call's result into its span record.
ATTR_HOOKS = {
    "repro.core.training:train": _train_attrs,
    "repro.stream.pipeline:stream_compress": _stream_attrs,
    "repro.codecs.huffman:HuffmanCodec.encode":
        lambda args, kwargs, result: {"symbols": int(args[1].size)},
    "repro.codecs.huffman:HuffmanCodec.decode":
        lambda args, kwargs, result: {"symbols": int(result.size)},
    "repro.cache.evalcache:EvalCache.get":
        lambda args, kwargs, result: {"hit": result is not None},
    "repro.parallel.executor:SerialExecutor.run_cancellable":
        lambda args, kwargs, result: {"offered": len(args[2]), "run": len(result)},
}


class _ThreadSpans:
    """One thread's open-span stack, aggregates and records."""

    __slots__ = ("stack", "agg", "records", "op", "top_seconds")

    def __init__(self) -> None:
        self.stack: list[list] = []      # open spans: [child seconds, record index]
        self.agg: dict[str, list] = {}   # name -> [calls, total seconds, self seconds]
        self.records: list = []
        self.op = -1
        self.top_seconds = 0.0           # time inside outermost spans


class Tracer:
    """Span collector; one per traced child process."""

    def __init__(self) -> None:
        self.enabled = False
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _mine(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def set_op(self, op: int) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._mine().op = op

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name: str, leaf: bool, hook):
        perf = time.perf_counter
        mine = self._mine
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = mine()
            stack = spans.stack
            index = -1
            if not leaf:
                index = len(spans.records)
                spans.records.append(None)
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                seconds = t1 - t0
                agg = spans.agg.get(name)
                if agg is None:
                    agg = spans.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += seconds
                agg[2] += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                else:
                    spans.top_seconds += seconds
                if not leaf:
                    attrs = None
                    if hook is not None and result is not None:
                        attrs = hook(args, kwargs, result)
                    spans.records[index] = (name, t0, t1, parent, spans.op, attrs)

        return wrapper

    def install(self) -> None:
        """Wrap every resolvable target of :data:`SPAN_TABLE`."""
        for layer in LAYERS:
            importlib.import_module(f"repro.{layer}")
        for name, target, leaf in SPAN_TABLE:
            try:
                self._install_one(name, target, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target)

    def _install_one(self, name: str, target: str, leaf: bool) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        hook = ATTR_HOOKS.get(target)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, leaf, hook)
            # ``from x import f`` binds f in the importer: replace it there too.
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            return
        owner = getattr(module, owner_name)
        raw = owner.__dict__.get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, leaf, hook)))
        else:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, leaf, hook))

    # -- read-out ----------------------------------------------------------
    def aggregates(self) -> dict[str, dict]:
        """``name -> {calls, total_s, self_s}`` summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            for name, (calls, total, own) in spans.agg.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(out.items())}

    def records(self) -> list[dict]:
        """Every kept span; ``parent`` indexes into the returned list."""
        out: list[dict] = []
        with self._lock:
            threads = list(self._threads)
        for thread_id, spans in enumerate(threads):
            base = len(out)
            for rec in spans.records:
                if rec is None:  # still open when the run ended
                    out.append({"name": "?", "start": 0.0, "end": 0.0, "parent": -1,
                                "op": -1, "thread": thread_id, "attrs": None})
                    continue
                name, t0, t1, parent, op, attrs = rec
                out.append({"name": name, "start": t0, "end": t1,
                            "parent": parent + base if parent >= 0 else -1,
                            "op": op, "thread": thread_id, "attrs": attrs})
        return out

    def top_seconds(self) -> float:
        with self._lock:
            return sum(spans.top_seconds for spans in self._threads)
