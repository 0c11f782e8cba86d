"""Out-of-core compression pipeline: reader → tuner → sharded writer.

:func:`stream_compress` threads the pieces together: a
:class:`~repro.stream.chunks.ChunkReader` memory-maps the source and yields
blocks, a :class:`~repro.stream.tuner.ChunkTuner` trains the error bound on
a sampled prefix of chunks and refits it on any later chunk that leaves the
band, batches of chunks fan through a
:class:`~repro.parallel.executor.BaseExecutor`, and a
:class:`~repro.stream.container.ShardWriter` appends each payload to the
output as soon as it exists.  Peak memory is bounded by the in-flight batch
(``workers`` chunks plus compression intermediates), never by the dataset:
pass ``max_memory`` and the planner sizes chunks so the whole pipeline
stays under it.

:func:`stream_decompress` is the inverse; it reassembles into memory or
into an ``.npy`` memmap for outputs that don't fit either.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.cache.evalcache import CacheEntry, EvalCache
from repro.core.training import SearchSpec
from repro.parallel.executor import BaseExecutor, SerialExecutor, make_executor
from repro.pressio.compressor import Compressor
from repro.pressio.registry import make_compressor
from repro.stream.chunks import ChunkReader
from repro.stream.container import ShardWriter, StreamedField
from repro.stream.tuner import ChunkTuner

__all__ = ["StreamResult", "stream_compress", "stream_decompress"]

#: How many times a chunk's buffer the compressors transiently allocate
#: (float64 reconstruction/residual/code planes, wavefront index arrays,
#: Huffman tables — measured ~33x steady-state for SZ on float32 input via
#: tracemalloc, plus cold-start wavefront-plan construction; see
#: tests/stream/test_pipeline.py).  The planner divides the user's memory
#: cap by this before sizing chunks, so the cap bounds the *whole
#: pipeline*, not just the raw chunk buffers.
COMPRESS_OVERHEAD_FACTOR = 64


@dataclass(frozen=True)
class StreamResult:
    """Summary of one streamed compression run."""

    path: str
    shape: tuple[int, ...]
    dtype: str
    chunk_shape: tuple[int, ...]
    n_chunks: int
    original_nbytes: int
    compressed_nbytes: int
    error_bound: float
    #: full searches beyond the first one (band misses).
    retrains: int
    evaluations: int
    cache_hits: int
    cache_misses: int
    in_band_chunks: int
    wall_seconds: float
    #: Seconds spent fitting the bound on the training prefix (0 for
    #: fixed-bound runs) — the "train" stage of the latency breakdown.
    train_seconds: float = 0.0

    @property
    def ratio(self) -> float:
        """Whole-file compression ratio (framing + index included)."""
        return self.original_nbytes / self.compressed_nbytes

    @property
    def mb_per_second(self) -> float:
        """End-to-end throughput over the original bytes."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.original_nbytes / 1e6 / self.wall_seconds

    def to_report(self, *, compressor: str, input: str | None = None,
                  cache: EvalCache | None = None):
        """This result as the unified :class:`~repro.api.report.StreamReport`.

        The typed report's ``to_dict()`` is the wire schema every entry
        point emits (``repro stream --json``, the service's ``/result``);
        :func:`repro.api.execute` builds its stream reports through here.
        """
        from repro.api.report import StreamReport  # lazy: stream is api-free

        return StreamReport.from_result(self, compressor=compressor,
                                        input=input, cache=cache)


def _compress_chunk(payload: tuple) -> tuple[bytes, int, float, float]:
    """Module-level trampoline (picklable for process pools): one chunk."""
    compressor, data = payload
    t0 = time.perf_counter()
    field = compressor.compress(data)
    return field.payload, field.original_nbytes, field.ratio, time.perf_counter() - t0


def _resolve_executor(executor: BaseExecutor | str | None, workers: int) -> BaseExecutor:
    if isinstance(executor, BaseExecutor):
        return executor
    if isinstance(executor, str):
        return make_executor(executor, workers)
    return SerialExecutor() if workers <= 1 else make_executor("thread", workers)


def stream_compress(
    source: str | os.PathLike | np.ndarray,
    output: str | os.PathLike,
    compressor: Compressor | str = "sz",
    target_ratio: float | None = None,
    error_bound: float | None = None,
    tolerance: float = SearchSpec.tolerance,
    max_error_bound: float | None = None,
    chunk_shape: tuple[int, ...] | None = None,
    max_memory: int | None = None,
    workers: int = 1,
    executor: BaseExecutor | str | None = None,
    train_chunks: int = 4,
    regions: int = SearchSpec.regions,
    overlap: float = SearchSpec.overlap,
    max_calls_per_region: int = SearchSpec.max_calls_per_region,
    seed: int = 0,
    cache: EvalCache | bool = True,
    cache_dir: str | None = None,
    shape: tuple[int, ...] | None = None,
    dtype: np.dtype | str | None = None,
    metadata: dict | None = None,
) -> StreamResult:
    """Compress a larger-than-memory source into a ``.frzs`` container.

    Exactly one of ``target_ratio`` (FRaZ-tuned, trained on a prefix of
    ``train_chunks`` chunks and refitted on any chunk that misses the band)
    and ``error_bound`` (fixed bound, no tuning) must be given.

    ``source`` is a ``.npy`` path, a raw binary path (then ``shape`` and
    ``dtype`` are required), or an in-memory array.  ``max_memory`` caps
    the pipeline's working set in bytes — chunks are sized so that
    ``workers`` concurrent compressions plus their transient buffers
    (:data:`COMPRESS_OVERHEAD_FACTOR`) fit under it; ``chunk_shape``
    overrides the planner.  The search settings are checked before the
    source is opened; a fixed-bound run never searches, so it ignores them.
    """
    if (target_ratio is None) == (error_bound is None):
        raise ValueError("pass exactly one of target_ratio or error_bound")
    comp = make_compressor(compressor) if isinstance(compressor, str) else compressor
    if isinstance(cache, EvalCache):
        eval_cache: EvalCache | None = cache
    elif cache:
        eval_cache = EvalCache(cache_dir=cache_dir)
    else:
        eval_cache = None
    pool = _resolve_executor(executor, workers)
    tuner: ChunkTuner | None = None
    if target_ratio is not None:
        tuner = ChunkTuner(
            compressor=comp,
            target_ratio=target_ratio,
            tolerance=tolerance,
            max_error_bound=max_error_bound,
            regions=regions,
            overlap=overlap,
            max_calls_per_region=max_calls_per_region,
            executor=pool,
            cache=eval_cache,
            seed=seed,
        )

    max_chunk_bytes = None
    if chunk_shape is None and max_memory is not None:
        max_chunk_bytes = max(
            1, int(max_memory) // (COMPRESS_OVERHEAD_FACTOR * max(1, workers))
        )
    reader = ChunkReader(
        source,
        chunk_shape=chunk_shape,
        max_chunk_bytes=max_chunk_bytes,
        shape=shape,
        dtype=dtype,
    )

    try:
        t0 = time.perf_counter()
        train_seconds = 0.0
        if tuner is not None:
            n_train = max(1, min(train_chunks, reader.n_chunks))
            # Sampled prefix: blocks are read (and released) one at a time.
            tuner.fit(reader.read(spec) for spec in reader.specs[:n_train])
            train_seconds = time.perf_counter() - t0
            bound = tuner.current_bound
        else:
            bound = float(error_bound)

        in_band = 0
        batch = max(1, workers)
        with ShardWriter(
            output, reader.shape, reader.dtype, reader.chunk_shape,
            comp.name, metadata=metadata,
        ) as writer:
            for lo in range(0, reader.n_chunks, batch):
                specs = reader.specs[lo : lo + batch]
                blocks = [reader.read(s) for s in specs]
                # A retrain mid-batch invalidates the bound the rest of the
                # batch was compressed at, so the batch is processed as a
                # queue: on a bound change, the remainder is re-fanned at the
                # new bound.  Every written payload therefore carries exactly
                # the bound it was compressed with.
                i = 0
                while i < len(specs):
                    configured = comp.with_error_bound(bound)
                    batch_bound = bound
                    outputs = pool.map_all(
                        _compress_chunk, [(configured, b) for b in blocks[i:]]
                    )
                    rewound = False
                    for j, (payload, _orig, ratio, seconds) in enumerate(outputs, start=i):
                        spec, block = specs[j], blocks[j]
                        if eval_cache is not None and tuner is not None:
                            # The streamed compression *is* a probe at this
                            # bound; recording it lets a retrain verify free.
                            # (Pointless without a tuner — nothing re-probes.)
                            key = eval_cache.key_for(comp, block, batch_bound)
                            if eval_cache.peek(key) is None:
                                eval_cache.put(key, CacheEntry(ratio, len(payload), seconds))
                        retrained = False
                        if tuner is not None:
                            if not tuner.in_band(ratio):
                                retrained = True
                                new_bound = tuner.fit((block,))
                                if new_bound != batch_bound:
                                    bound = new_bound
                                    payload, _orig, ratio, seconds = _compress_chunk(
                                        (comp.with_error_bound(bound), block)
                                    )
                                    writer.write_chunk(
                                        spec, payload, error_bound=bound,
                                        ratio=ratio, retrained=True,
                                    )
                                    if tuner.in_band(ratio):
                                        in_band += 1
                                    i = j + 1
                                    rewound = True
                                    break
                            if tuner.in_band(ratio):
                                in_band += 1
                        writer.write_chunk(
                            spec, payload, error_bound=batch_bound,
                            ratio=ratio, retrained=retrained,
                        )
                    if not rewound:
                        i = len(specs)
                del blocks
        compressed_nbytes = os.stat(output).st_size
    finally:
        reader.close()  # drop the map even when tuning/compression dies

    return StreamResult(
        path=os.fspath(output),
        shape=reader.shape,
        dtype=reader.dtype.str,
        chunk_shape=reader.chunk_shape,
        n_chunks=reader.n_chunks,
        original_nbytes=reader.nbytes,
        compressed_nbytes=compressed_nbytes,
        error_bound=float(bound),
        retrains=max(0, tuner.retrain_count - 1) if tuner is not None else 0,
        evaluations=tuner.evaluations if tuner is not None else 0,
        cache_hits=tuner.cache_hits if tuner is not None else 0,
        cache_misses=tuner.cache_misses if tuner is not None else 0,
        in_band_chunks=in_band if tuner is not None else reader.n_chunks,
        wall_seconds=time.perf_counter() - t0,
        train_seconds=train_seconds,
    )


def stream_decompress(
    path: str | os.PathLike,
    out: np.ndarray | str | os.PathLike | None = None,
) -> np.ndarray:
    """Reconstruct a ``.frzs`` streamed container.

    ``out=None`` returns an in-memory array; an ``.npy`` path streams the
    reconstruction into a memmap so the output never has to fit in memory;
    a preallocated array is filled in place.
    """
    with StreamedField(path) as field:
        return field.decompress(out)
