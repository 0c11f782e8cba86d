"""Request execution: one typed path from a :class:`Plan` to a :class:`Report`.

:func:`execute` runs a routed request through the existing layers —
:class:`~repro.core.fraz.FRaZ` for in-memory tunes/compressions,
:func:`~repro.stream.pipeline.stream_compress` for out-of-core work, the
``.frz``/``.frzs`` readers for decompression, and
:class:`~repro.serve.client.ServiceClient` for service dispatch — and
returns the matching typed report.  The CLI, the service scheduler's
workers, and user scripts all call exactly this function, which is what
makes one request produce bit-identical output through every entry point.

Precedence for execution resources: values set on
``request.resources`` win; the keyword arguments (the executing host's
configuration — scheduler intra-executor, CLI flags) fill what the
request leaves unset; built-in defaults cover the rest.  The ``cache``
keyword is the exception: an explicit :class:`~repro.cache.EvalCache`
instance (the service's shared cache) or ``False`` always wins, because
cache policy belongs to the executing host.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.api.plan import Plan, plan as _plan
from repro.api.report import (
    CompressReport,
    DecompressReport,
    Report,
    TuneReport,
    report_from_dict,
)
from repro.api.request import CompressionRequest
from repro.cache.evalcache import EvalCache
from repro.core.fraz import FRaZ
from repro.io.files import load_field, save_field
from repro.obs.trace import span as _trace_span
from repro.pressio.registry import make_compressor

__all__ = ["execute", "run"]


def run(request: CompressionRequest, *, service_url: str | None = None,
        **kwargs) -> Report:
    """Plan then execute in one call: ``run(req) == execute(plan(req))``."""
    return execute(_plan(request, service_url=service_url), **kwargs)


def execute(
    target: Plan | CompressionRequest,
    *,
    cache: EvalCache | bool | None = None,
    executor=None,
    workers: int | None = None,
    max_memory: int | None = None,
    seed: int = 0,
    timeout: float = 300.0,
) -> Report:
    """Execute a plan (or auto-plan a bare request); returns a typed report.

    ``cache=None`` builds a private :class:`EvalCache` from the request's
    resource block (honouring ``resources.cache``/``cache_dir``, with the
    disk tier persisted after a successful run); pass an instance to
    share one across requests, or ``False`` to disable caching.
    ``executor``/``workers``/``max_memory`` are host-side fallbacks for
    resource fields the request leaves unset.  ``timeout`` bounds the
    result wait for service-routed plans.
    """
    pl = target if isinstance(target, Plan) else _plan(target)
    request = pl.request
    if pl.route == "service":
        return _execute_service(pl, timeout=timeout)

    res = request.resources
    eff_executor = res.executor if res.executor is not None else executor
    eff_workers = res.workers if res.workers is not None else workers
    eff_memory = res.max_memory if res.max_memory is not None else max_memory

    # Fixed-bound in-memory work and decompression never probe the
    # compressor, so an auto-built cache would only add empty baggage.
    wants_cache = request.kind != "decompress" and request.target_ratio is not None
    own_cache: EvalCache | None = None
    if isinstance(cache, EvalCache):
        cache_obj: EvalCache | None = cache
    elif cache is None and wants_cache and res.cache:
        cache_obj = own_cache = EvalCache(cache_dir=res.cache_dir)
    elif cache is True:
        cache_obj = own_cache = EvalCache()
    else:
        cache_obj = None

    if pl.route == "stream":
        if request.kind == "decompress":
            report: Report = _execute_decompress(request)
        else:
            report = _execute_stream(
                request, cache=cache_obj, own_cache=own_cache,
                executor=eff_executor, workers=eff_workers,
                max_memory=eff_memory, seed=seed,
            )
    elif request.kind == "decompress":
        report = _execute_decompress(request)
    elif request.kind == "tune":
        report = _execute_tune(
            request, cache=cache_obj, own_cache=own_cache,
            executor=eff_executor, workers=eff_workers, seed=seed,
        )
    else:
        report = _execute_compress(
            request, cache=cache_obj, own_cache=own_cache,
            executor=eff_executor, workers=eff_workers, seed=seed,
        )

    if own_cache is not None and own_cache.cache_dir is not None:
        try:
            own_cache.save()
        except OSError as exc:
            # An unwritable cache dir must not eat the result.
            print(f"warning: could not persist evaluation cache: {exc}",
                  file=sys.stderr)
    return report


# ---------------------------------------------------------------------------
# route implementations
# ---------------------------------------------------------------------------

def _fraz(request: CompressionRequest, *, cache, executor, workers, seed) -> FRaZ:
    return FRaZ.from_request(
        request,
        executor=executor,
        workers=workers,
        seed=seed,
        cache=cache if cache is not None else False,
    )


def _execute_tune(request, *, cache, own_cache, executor, workers, seed) -> TuneReport:
    data = request.load_array()
    with _trace_span("search", {"target_ratio": request.target_ratio}):
        result = _fraz(request, cache=cache, executor=executor,
                       workers=workers, seed=seed).tune(data)
    return TuneReport.from_training(
        result,
        compressor=request.compressor,
        input=request.input,
        max_error_bound=request.max_error_bound,
        cache=own_cache,
    )


def _execute_compress(request, *, cache, own_cache, executor, workers,
                      seed) -> CompressReport:
    data = request.load_array()
    t0 = time.perf_counter()
    if request.error_bound is not None:
        configured = make_compressor(
            request.compressor, error_bound=request.error_bound, **request.options
        )
        with _trace_span("encode", {"error_bound": request.error_bound}):
            payload = save_field(request.output, data, configured)
        return CompressReport.from_field(
            payload,
            compressor=request.compressor,
            error_bound=request.error_bound,
            output=request.output,
            input=request.input,
            wall_seconds=time.perf_counter() - t0,
        )
    fraz = _fraz(request, cache=cache, executor=executor, workers=workers, seed=seed)
    with _trace_span("search", {"target_ratio": request.target_ratio}):
        payload, result = fraz.compress(data)
    configured = make_compressor(
        request.compressor, error_bound=result.error_bound, **request.options
    )
    with _trace_span("encode", {"error_bound": result.error_bound}):
        save_field(
            request.output, payload, configured,
            metadata={"target_ratio": request.target_ratio,
                      "feasible": result.feasible},
        )
    return CompressReport.from_field(
        payload,
        compressor=request.compressor,
        error_bound=result.error_bound,
        output=request.output,
        input=request.input,
        tuning=TuneReport.from_training(
            result,
            compressor=request.compressor,
            input=request.input,
            max_error_bound=request.max_error_bound,
        ),
        wall_seconds=time.perf_counter() - t0,
        cache=own_cache,
    )


def _execute_stream(request, *, cache, own_cache, executor, workers,
                    max_memory, seed) -> Report:
    from repro.stream.pipeline import stream_compress  # lazy: heavy import

    opts = request.stream_options
    configured = make_compressor(request.compressor, **request.options)
    with _trace_span("train", {"target_ratio": request.target_ratio}):
        result = stream_compress(
            request.input if request.input is not None else request.load_array(),
            request.output,
            compressor=configured,
            target_ratio=request.target_ratio,
            error_bound=request.error_bound,
            tolerance=request.tolerance,
            max_error_bound=request.max_error_bound,
            chunk_shape=opts.get("chunk_shape"),
            max_memory=max_memory,
            workers=workers if workers is not None else 1,
            executor=executor,
            train_chunks=opts.get("train_chunks", 4),
            seed=seed,
            cache=cache if cache is not None else False,
            shape=opts.get("shape"),
            dtype=opts.get("dtype"),
        )
    return result.to_report(compressor=request.compressor, input=request.input,
                            cache=own_cache)


def _execute_decompress(request) -> DecompressReport:
    from repro.stream import StreamedField, is_streamed_file  # lazy: heavy import

    t0 = time.perf_counter()
    if is_streamed_file(request.input):
        out = request.output
        if not out.endswith(".npy"):
            out += ".npy"
        with _trace_span("decode", {"from_stream": True}), \
                StreamedField(request.input) as field:
            field.decompress(out)
            return DecompressReport(
                compressor=field.meta["compressor"],
                input=request.input,
                output=out,
                ratio=field.ratio,
                shape=field.shape,
                dtype=field.dtype.str,
                streamed=True,
                n_chunks=field.n_chunks,
                wall_seconds=round(time.perf_counter() - t0, 6),
            )
    with _trace_span("decode", {"from_stream": False}):
        data, meta = load_field(request.input)
    out = request.output if request.output.endswith(".npy") else request.output + ".npy"
    np.save(request.output, data)  # np.save appends .npy itself when missing
    return DecompressReport(
        compressor=meta["compressor"],
        input=request.input,
        output=out,
        ratio=meta["ratio"],
        shape=data.shape,
        dtype=data.dtype.str,
        streamed=False,
        wall_seconds=round(time.perf_counter() - t0, 6),
    )


def _execute_service(pl: Plan, *, timeout: float) -> Report:
    from repro.serve.client import ServiceClient  # lazy: avoids import cycle

    client = ServiceClient(pl.endpoint)
    ticket = client.submit(pl.request)
    result = client.result(ticket["job_id"], timeout=timeout)
    return report_from_dict(result)
