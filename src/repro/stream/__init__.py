"""Out-of-core streamed compression (datasets larger than memory).

The in-memory path (:class:`repro.FRaZ`) needs the whole field resident
before a single probe runs, which caps usable dataset size far below the
HACC/CESM scales the paper targets.  This package removes the cap:

* :mod:`repro.stream.chunks` — chunk planning and a memory-mapped
  :class:`ChunkReader` that yields fixed-shape blocks (ragged tails
  included) from ``.npy`` / raw binary files without loading them;
* :mod:`repro.stream.tuner` — :class:`ChunkTuner`, which trains the error
  bound on a sampled prefix of chunks and reuses it, retraining on band
  misses;
* :mod:`repro.stream.container` — the self-describing multi-chunk
  ``.frzs`` format (:class:`ShardWriter` / :class:`StreamedField`) built
  on the version-2 streamed :mod:`repro.codecs.container` layout;
* :mod:`repro.stream.pipeline` — :func:`stream_compress` /
  :func:`stream_decompress`, fanning chunk batches through
  :mod:`repro.parallel.executor` under a caller-set memory cap while all
  searches share one :class:`repro.cache.EvalCache`.

Quickstart::

    from repro.stream import stream_compress, stream_decompress

    result = stream_compress("field.npy", "field.frzs",
                             target_ratio=10.0, max_memory=64 << 20)
    recon = stream_decompress("field.frzs")            # or out="recon.npy"
"""

from repro.stream.chunks import ChunkReader, ChunkSpec, chunk_shape_for_budget, plan_chunks
from repro.stream.container import ShardWriter, StreamedField, is_streamed_file
from repro.stream.pipeline import StreamResult, stream_compress, stream_decompress
from repro.stream.tuner import ChunkTuner

__all__ = [
    "ChunkReader",
    "ChunkSpec",
    "ChunkTuner",
    "ShardWriter",
    "StreamResult",
    "StreamedField",
    "chunk_shape_for_budget",
    "is_streamed_file",
    "plan_chunks",
    "stream_compress",
    "stream_decompress",
]
