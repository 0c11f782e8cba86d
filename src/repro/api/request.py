"""The one request type behind every entry point.

A :class:`CompressionRequest` is a frozen, JSON-serialisable description
of one unit of compression work — tune a bound, compress (in memory or
out of core), decompress, or stream — validated *at construction* so an
invalid request can never reach an execution layer.  The Python facade
(:func:`repro.api.execute`), the ``repro`` CLI, the HTTP service
(:class:`repro.serve.jobs.JobSpec` is this request plus scheduling
fields), and the stream pipeline all construct and consume the same
type, so a request round-trips bit-identically through any entry point.

Field groups:

* **what** — ``kind`` (one of :data:`REQUEST_KINDS`), ``compressor``
  (registry name) plus ``options`` (constructor options, validated
  against :func:`repro.pressio.registry.compressor_option_names`);
* **objective** — exactly one of ``target_ratio`` (FRaZ-tuned) and
  ``error_bound`` (fixed), with ``tolerance`` and ``max_error_bound``;
* **data** — exactly one of ``input`` (a path) and ``data_b64`` (a
  base64 ``.npy`` shipped inline), plus ``output``;
* **routing** — ``stream`` forces/forbids the out-of-core pipeline for
  ``kind="compress"`` (``None`` lets :func:`repro.api.plan` decide by
  input size) and ``stream_options`` tunes it;
* **resources** — a :class:`Resources` block (workers, executor,
  memory cap, cache policy) the executing host may honour or override.
"""

from __future__ import annotations

import base64
import io
import json
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import RequestError
from repro.pressio.registry import available_compressors, compressor_option_names

__all__ = ["REQUEST_KINDS", "Resources", "CompressionRequest", "encode_array"]

#: Request kinds, in the order the docs present them.
REQUEST_KINDS = ("tune", "compress", "decompress", "stream")

_EXECUTORS = ("serial", "thread", "process")

#: ``stream_options`` keys (forwarded to
#: :func:`repro.stream.pipeline.stream_compress`).
STREAM_OPTION_KEYS = (
    "chunk_shape",
    "train_chunks",
    "shape",
    "dtype",
)

#: Objective fields that must never hide inside ``options``.
_RESERVED_OPTIONS = ("error_bound", "target_ratio", "tolerance", "max_error_bound")


def encode_array(data: np.ndarray) -> str:
    """Base64-``.npy`` encoding for the ``data_b64`` field."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(data), allow_pickle=False)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def _shape_tuple(value, label: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(c) for c in value)
    except (TypeError, ValueError):
        raise RequestError(f"{label} must be a sequence of ints, got {value!r}") from None
    if not shape or any(c < 1 for c in shape):
        raise RequestError(f"{label} must be positive ints, got {value!r}")
    return shape


@dataclass(frozen=True)
class Resources:
    """Execution-resource hints riding with a request.

    Every field defaults to "unset" (``None``) so the executing host can
    fill the gaps from its own configuration: the CLI applies its flags,
    the service applies its scheduler policy.  ``cache``/``cache_dir``
    describe the evaluation-cache policy for *locally executed* requests;
    the service keeps its own shared cache regardless (coalescing and
    cross-job reuse depend on it).
    """

    workers: int | None = None
    executor: str | None = None
    max_memory: int | None = None
    cache: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and (
            isinstance(self.workers, bool) or not isinstance(self.workers, int)
        ):
            raise RequestError(f"resources.workers must be an int, got {self.workers!r}")
        if self.executor is not None and self.executor not in _EXECUTORS:
            raise RequestError(
                f"resources.executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if self.max_memory is not None:
            if isinstance(self.max_memory, bool) or not isinstance(self.max_memory, int):
                raise RequestError(
                    f"resources.max_memory must be an int, got {self.max_memory!r}"
                )
            if self.max_memory <= 0:
                raise RequestError(
                    f"resources.max_memory must be positive, got {self.max_memory}"
                )
        if not isinstance(self.cache, bool):
            raise RequestError(f"resources.cache must be a bool, got {self.cache!r}")

    @classmethod
    def coerce(cls, value: "Resources | dict | None") -> "Resources":
        """Normalise a JSON dict (or ``None``) into a :class:`Resources`."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if not isinstance(value, dict):
            raise RequestError(f"resources must be an object, got {type(value).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(value) - known
        if unknown:
            raise RequestError(f"unknown resources fields: {sorted(unknown)}")
        return cls(**value)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CompressionRequest:
    """One typed, validated unit of compression work (see module docs)."""

    kind: str
    compressor: str = "sz"
    options: dict = field(default_factory=dict)
    target_ratio: float | None = None
    error_bound: float | None = None
    tolerance: float = 0.1
    max_error_bound: float | None = None
    input: str | None = None
    data_b64: str | None = None
    output: str | None = None
    stream: bool | None = None
    stream_options: dict = field(default_factory=dict)
    resources: Resources = field(default_factory=Resources)

    # -- validation --------------------------------------------------------
    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise RequestError(f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "resources", Resources.coerce(self.resources))
        self._validate_field_types()
        self._validate_compressor_options()
        self._validate_data_fields()
        self._validate_objective()
        self._validate_stream_fields()

    def _validate_compressor_options(self) -> None:
        if not isinstance(self.options, dict) or any(
            not isinstance(k, str) for k in self.options
        ):
            raise RequestError("options must be a dict with string keys")
        reserved = sorted(set(self.options) & set(_RESERVED_OPTIONS))
        if reserved:
            raise RequestError(
                f"pass {reserved} as top-level request fields, not compressor options"
            )
        try:
            valid = compressor_option_names(self.compressor)
        except KeyError:
            raise RequestError(
                f"unknown compressor {self.compressor!r}; "
                f"available: {available_compressors()}"
            ) from None
        if valid is not None:
            unknown = sorted(set(self.options) - set(valid))
            if unknown:
                raise RequestError(
                    f"unknown option(s) {unknown} for compressor "
                    f"{self.compressor!r}; valid options: {sorted(valid)}"
                )

    def _validate_data_fields(self) -> None:
        if self.kind == "decompress":
            if self.input is None or self.data_b64 is not None:
                raise RequestError("decompress requests take input (a path), not inline data")
        elif (self.input is None) == (self.data_b64 is None):
            raise RequestError("pass exactly one of input (a path) or data_b64 (inline)")
        if self.kind == "stream" and self.input is None:
            raise RequestError("stream requests require a file input, not inline data")
        if self.kind == "tune":
            if self.output is not None:
                raise RequestError("tune requests take no output path")
        elif self.output is None:
            raise RequestError(f"{self.kind} requests require an output path")

    def _validate_field_types(self) -> None:
        # Wire payloads arrive as arbitrary JSON; mistyped fields must be
        # ValueErrors (the 400 path), never TypeErrors from a comparison.
        for name in ("target_ratio", "error_bound", "max_error_bound", "tolerance"):
            value = getattr(self, name)
            if name == "tolerance" and value is None:
                raise RequestError("tolerance must be a number in (0, 1), got None")
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise RequestError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.compressor, str):
            raise RequestError(f"compressor must be a string, got {self.compressor!r}")
        for name in ("input", "data_b64", "output"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise RequestError(f"{name} must be a string, got {value!r}")

    def _validate_objective(self) -> None:
        if self.kind == "tune":
            if self.target_ratio is None:
                raise RequestError("tune requests require target_ratio")
            if self.error_bound is not None:
                raise RequestError("tune requests take target_ratio, not error_bound")
        elif self.kind == "decompress":
            if self.target_ratio is not None or self.error_bound is not None:
                raise RequestError(
                    "decompress requests take no target_ratio or error_bound"
                )
        elif (self.target_ratio is None) == (self.error_bound is None):
            raise RequestError(
                f"{self.kind} requests require exactly one of target_ratio or error_bound"
            )
        if self.target_ratio is not None and not self.target_ratio > 0:
            raise RequestError(f"target_ratio must be positive, got {self.target_ratio}")
        if self.error_bound is not None and not self.error_bound > 0:
            raise RequestError(f"error_bound must be positive, got {self.error_bound}")
        if self.max_error_bound is not None and not self.max_error_bound > 0:
            raise RequestError(
                f"max_error_bound must be positive, got {self.max_error_bound}"
            )
        if not 0 < self.tolerance < 1:
            raise RequestError(f"tolerance must be in (0, 1), got {self.tolerance}")

    def _validate_stream_fields(self) -> None:
        if self.stream is not None:
            if self.kind != "compress":
                raise RequestError(
                    "the stream routing hint applies to compress requests only "
                    "(use kind='stream' to force the out-of-core pipeline)"
                )
            if not isinstance(self.stream, bool):
                raise RequestError(f"stream must be a bool or None, got {self.stream!r}")
            if self.stream and self.input is None:
                raise RequestError("stream=True requires a file input, not inline data")
        if not isinstance(self.stream_options, dict):
            raise RequestError("stream_options must be a dict")
        if self.stream_options and self.kind not in ("compress", "stream"):
            raise RequestError(f"stream_options do not apply to {self.kind} requests")
        unknown = sorted(set(self.stream_options) - set(STREAM_OPTION_KEYS))
        if unknown:
            raise RequestError(
                f"unknown stream_options {unknown}; valid: {sorted(STREAM_OPTION_KEYS)}"
            )
        normalized = dict(self.stream_options)
        for key in ("chunk_shape", "shape"):
            if normalized.get(key) is not None:
                normalized[key] = _shape_tuple(normalized[key], f"stream_options.{key}")
        train_chunks = normalized.get("train_chunks", 1)
        if isinstance(train_chunks, bool) or not isinstance(train_chunks, int) or train_chunks < 1:
            raise RequestError(
                f"stream_options.train_chunks must be a positive int, got {train_chunks!r}"
            )
        object.__setattr__(self, "stream_options", normalized)

    # -- data access -------------------------------------------------------
    def load_array(self) -> np.ndarray:
        """Materialise the request's data (inline bytes or ``.npy`` path)."""
        if self.data_b64 is not None:
            return np.load(
                io.BytesIO(base64.b64decode(self.data_b64)), allow_pickle=False
            )
        return np.load(self.input, allow_pickle=False)

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (defaults included, for transparency in logs)."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "resources":
                value = value.to_dict()
            elif f.name == "stream_options":
                value = {
                    k: list(v) if isinstance(v, tuple) else v for k, v in value.items()
                }
            elif f.name == "options":
                value = dict(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CompressionRequest":
        """Build a request from a JSON body, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise RequestError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        if "kind" not in payload:
            raise RequestError(f"request requires a kind (one of {REQUEST_KINDS})")
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CompressionRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(f"request is not valid JSON: {exc}") from None
        return cls.from_dict(payload)
