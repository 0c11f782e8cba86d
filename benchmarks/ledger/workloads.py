"""The six workloads: input generation (parent) and the measured program (child).

Each workload is a *compress phase* followed by a *decompress phase* over
the compress phase's own outputs, then untimed verification.  ``run.py``
starts this file twice per set-up: once with ``--generate``, which calls
:meth:`Workload.generate` to write the inputs, and once as the child under
measurement, which receives only those files, runs :meth:`open`,
:meth:`warmup`, the two timed phases and :meth:`verify`, and writes
``result.json`` into the work directory.

Public entry points are called with their default arguments; only what a
workload's docstring names is pinned.  Only names exported by a package
``__all__`` are imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from metrics import op_in_band

CLIENTS = 2  # closed-loop load threads; this box has 2 cores


def seeded_field(shape: tuple[int, ...], spectrum: list[int], seed: int) -> np.ndarray:
    """One float32 field whose *spectrum* is fixed and whose *phases* come from ``seed``.

    ``fourier_field`` draws wave vectors, amplitudes, phases and per-mode drift
    rates from the generator it is given; seeding that generator with
    ``spectrum`` (workload and field index) fixes them all, and asking for the
    second time-step at ``drift = 1 + seed`` then turns every mode's phase by
    its own seed-dependent angle.  Every seed therefore gives different arrays
    of the same compressibility: the plan's work does not jump between seeds,
    so the spread over seeds is the spread of the measurement.
    """
    from repro.datasets import fourier_field

    return fourier_field(tuple(shape), 2, np.random.default_rng(spectrum), drift=1.0 + seed)[1]


def _save_plan(workdir: Path, plan: dict) -> None:
    (workdir / "plan.json").write_text(json.dumps(plan))


def _value_range(data: np.ndarray) -> float:
    return float(data.max() - data.min())


class Workload:
    """Shared op bookkeeping; subclasses define the plan and the calls."""

    name = ""
    clients = 1
    #: per size, what :meth:`generate` builds; ``SHAPES[size][UNITS]`` is the
    #: repeat count that ``--seconds`` scales
    SHAPES: dict[str, dict] = {}
    UNITS = ""

    def __init__(self, workdir: Path, tracer=None) -> None:
        self.dir = workdir
        self.tracer = tracer
        self.plan = json.loads((workdir / "plan.json").read_text())
        self.failures: list[str] = []   # verification failures, one line each
        self.checks = 0                 # verification checks made

    # -- generator side ----------------------------------------------------
    @classmethod
    def spec(cls, size: str, scale: float = 1.0) -> dict:
        spec = dict(cls.SHAPES[size])
        if size == "full":
            spec[cls.UNITS] = max(1, round(spec[cls.UNITS] * scale))
        return spec

    @classmethod
    def generate(cls, seed: int, workdir: Path, spec: dict) -> None:
        """Write the input files and ``plan.json`` for one :meth:`spec`."""
        raise NotImplementedError

    @classmethod
    def _field(cls, shape, index: int, seed: int) -> np.ndarray:
        return seeded_field(shape, [sorted(WORKLOADS).index(cls.name), index], seed)

    # -- child side --------------------------------------------------------
    def open(self) -> None:
        """Load inputs and start whatever serves the ops."""

    def warmup(self) -> None:
        """One untimed op per op class."""

    def compress_phase(self) -> tuple[list[dict], float]:
        raise NotImplementedError

    def decompress_phase(self) -> tuple[list[dict], float]:
        raise NotImplementedError

    def periods(self) -> tuple[int, int]:
        """``(compress, decompress)``: after how many ops each phase's plan
        repeats.  Consecutive blocks of that many ops have the same
        composition; throughput is the median over blocks (``metrics.py``)."""
        raise NotImplementedError

    def verify(self, compress_ops: list[dict], decompress_ops: list[dict]) -> None:
        raise NotImplementedError

    def layer_extras(self) -> dict:
        """Traced runs only: measurements beyond the span table."""
        return {}

    def close(self) -> None:
        """Stop servers; every thread and process this workload started."""

    # -- helpers -----------------------------------------------------------
    def _op(self, out: list, op_id: int, cls: str, fn) -> None:
        """Run ``fn`` as one timed op; a raising op is recorded, not fatal."""
        if self.tracer is not None:
            self.tracer.set_op(op_id)
        rec = {"op": op_id, "cls": cls, "error": None}
        t0 = time.perf_counter()
        try:
            rec.update(fn())
        except Exception:  # noqa: BLE001 - the op boundary: count it as failed
            rec["error"] = traceback.format_exc(limit=4).strip().splitlines()[-1]
        rec["seconds"] = time.perf_counter() - t0
        out.append(rec)

    def _serial(self, items: list, run_one) -> tuple[list[dict], float]:
        """``run_one(out, op_id, item)`` over ``items``; returns (ops, wall)."""
        out: list[dict] = []
        t0 = time.perf_counter()
        for op_id, item in enumerate(items):
            run_one(out, op_id, item)
        return out, time.perf_counter() - t0

    def _closed_loop(self, items: list, make_runner) -> tuple[list[dict], float]:
        """``CLIENTS`` threads, each sending its next item when the previous
        one is answered.  ``make_runner()`` builds one client's
        ``run_one(out, op_id, item)``; item ``i`` goes to client ``i % CLIENTS``.
        """
        outs: list[list[dict]] = [[] for _ in range(CLIENTS)]

        def loop(client: int) -> None:
            run_one = make_runner()
            for op_id in range(client, len(items), CLIENTS):
                run_one(outs[client], op_id, items[op_id])

        threads = [threading.Thread(target=loop, args=(c,), name=f"ledger-client-{c}")
                   for c in range(CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        return sorted((op for out in outs for op in out), key=lambda r: r["op"]), wall

    def _check(self, ok: bool, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def _check_recon(self, what: str, original: np.ndarray, recon, bound: float) -> None:
        """Shape/dtype equality, then the pointwise bound."""
        if not self._check(
            isinstance(recon, np.ndarray) and recon.shape == original.shape
            and recon.dtype == original.dtype,
            f"{what}: decoded to {getattr(recon, 'shape', None)}/"
            f"{getattr(recon, 'dtype', None)}, expected {original.shape}/{original.dtype}",
        ):
            return
        worst = float(np.max(np.abs(original.astype(np.float64) - recon.astype(np.float64)))) \
            if original.size else 0.0
        self._check(worst <= bound, f"{what}: max error {worst:.6g} exceeds bound {bound:.6g}")

    def _check_feasible(self, what: str, op: dict) -> None:
        """``feasible=True`` must mean the achieved ratio is inside the band."""
        if op.get("feasible"):
            self._check(op_in_band(op),
                        f"{what}: feasible but ratio {op['ratio']:.4g} outside "
                        f"{op['target']}*(1±{op['tolerance']})")


# ---------------------------------------------------------------------------
# fixed_bound
# ---------------------------------------------------------------------------

class FixedBound(Workload):
    """Every registered error-bounded compressor at a fixed bound.

    Pinned: the bound, ``1e-3 x value range`` of each field.
    """

    name = "fixed_bound"

    COMPRESSORS = ("sz", "sz-interp", "zfp", "mgard")
    UNITS = "passes"
    SHAPES = {
        # `groups` x one field of each shape (the last group's 2-D field as
        # float64); `passes` compress passes, `decode_passes` decompress passes
        "full": {"shapes": [(64, 64, 32), (256, 256), (44032,)], "groups": 3,
                 "passes": 3, "decode_passes": 2},
        "smoke": {"shapes": [(16, 16, 8), (32, 32), (2048,)], "groups": 1,
                  "passes": 1, "decode_passes": 1},
    }

    @classmethod
    def generate(cls, seed, workdir, spec):
        fields = []
        for group in range(spec["groups"]):
            for shape in spec["shapes"]:
                i = len(fields)
                data = cls._field(shape, i, seed)
                if len(shape) == 2 and group == spec["groups"] - 1:
                    data = data.astype(np.float64)
                np.save(workdir / f"field{i}.npy", data)
                fields.append({"file": f"field{i}.npy", "bound": 1e-3 * _value_range(data)})
        _save_plan(workdir, {"fields": fields, "group": len(spec["shapes"]),
                             "passes": spec["passes"], "decode_passes": spec["decode_passes"]})

    def open(self):
        from repro.pressio import make_compressor

        self.make = make_compressor
        self.fields = [np.load(self.dir / f["file"]) for f in self.plan["fields"]]
        # one item per (field, compressor that supports its dimensionality)
        self.items = [
            (i, name)
            for i, data in enumerate(self.fields)
            for name in self.COMPRESSORS
            if make_compressor(name).supports(data)
        ]
        self.payloads: dict[tuple[int, str], object] = {}
        self.recons: dict[tuple[int, str], np.ndarray] = {}

    def _cls(self, item) -> str:
        i, name = item
        return f"{name}/{self.fields[i].ndim}d"

    def _compress(self, out, op_id, item):
        i, name = item
        data, bound = self.fields[i], self.plan["fields"][i]["bound"]

        def fn():
            field = self.make(name, error_bound=bound).compress(data)
            self.payloads[item] = field
            return {"in_bytes": data.nbytes, "stored_bytes": field.nbytes,
                    "ratio": field.ratio, "target": None}
        self._op(out, op_id, self._cls(item), fn)

    def _decompress(self, out, op_id, item):
        i, name = item
        bound = self.plan["fields"][i]["bound"]

        def fn():
            recon = self.make(name, error_bound=bound).decompress(self.payloads[item])
            self.recons[item] = recon
            return {"out_bytes": recon.nbytes}
        self._op(out, op_id, self._cls(item), fn)

    def warmup(self):
        seen = set()
        scratch: list[dict] = []
        for item in self.items:
            if self._cls(item) not in seen:
                seen.add(self._cls(item))
                self._compress(scratch, -1, item)
                self._decompress(scratch, -1, item)
        self.payloads.clear()
        self.recons.clear()

    def compress_phase(self):
        return self._serial(self.items * self.plan["passes"], self._compress)

    def decompress_phase(self):
        return self._serial(self.items * self.plan["decode_passes"], self._decompress)

    def periods(self):
        # a group of fields, one of each shape, under every compressor
        per_group = sum(1 for i, _ in self.items if i < self.plan["group"])
        return per_group, per_group

    def verify(self, compress_ops, decompress_ops):
        for item in self.items:
            i, name = item
            self._check_recon(f"{name} field{i}", self.fields[i], self.recons.get(item),
                              self.plan["fields"][i]["bound"])


# ---------------------------------------------------------------------------
# fixed_ratio
# ---------------------------------------------------------------------------

class FixedRatio(Workload):
    """Cold fixed-ratio searches: a fresh ``FRaZ`` per op.

    Pinned: compressor, target ratio and tolerance (0.1; 0.25 for ZFP, whose
    stepped ratio curve otherwise makes feasibility a coin flip per field).
    """

    name = "fixed_ratio"

    UNITS = "fields"
    SHAPES = {
        # per field: every (compressor, target, tolerance) of `feasible`, then of `hard`
        "full": {"shape": (16, 16, 16), "fields": 6,
                 "feasible": [("sz", 8, 0.1), ("sz", 16, 0.1),
                              ("sz-interp", 8, 0.1), ("sz-interp", 16, 0.1),
                              ("zfp", 8, 0.25), ("zfp", 16, 0.25),
                              ("mgard", 8, 0.1), ("mgard", 16, 0.1)],
                 "hard": [("zfp", 200, 0.25), ("mgard", 200, 0.1)],
                 "decode_passes": 4},
        "smoke": {"shape": (12, 12, 8), "fields": 1,
                  "feasible": [("sz", 8, 0.1), ("zfp", 8, 0.25)],
                  "hard": [("zfp", 200, 0.25)], "decode_passes": 1},
    }

    @classmethod
    def generate(cls, seed, workdir, spec):
        for i in range(spec["fields"]):
            np.save(workdir / f"field{i}.npy", cls._field(spec["shape"], i, seed))
        _save_plan(workdir, {k: spec[k] for k in ("fields", "feasible", "hard", "decode_passes")})

    def open(self):
        from repro.core import FRaZ

        self.FRaZ = FRaZ
        self.fields = [np.load(self.dir / f"field{i}.npy") for i in range(self.plan["fields"])]
        # field-major, so cheap and dear searches are spread over the whole phase
        self.items = [
            (i, name, float(target), tolerance)
            for i in range(len(self.fields))
            for name, target, tolerance in self.plan["feasible"] + self.plan["hard"]
        ]
        self.payloads: dict[tuple, tuple] = {}
        self.recons: dict[tuple, np.ndarray] = {}

    def _compress(self, out, op_id, item):
        i, name, target, tolerance = item
        data = self.fields[i]

        def fn():
            fraz = self.FRaZ(name, target, tolerance=tolerance)
            payload, result = fraz.compress(data)
            self.payloads[item] = (payload, result.error_bound)
            # The outcome, not the request, decides the cost: a search that
            # finds no bound spends every probe of every region.
            return {"cls": f"{name}/" + ("found" if result.feasible else "infeasible"),
                    "in_bytes": data.nbytes, "stored_bytes": payload.nbytes,
                    "ratio": payload.ratio, "target": target, "tolerance": tolerance,
                    "feasible": bool(result.feasible)}
        self._op(out, op_id, name, fn)

    def _decompress(self, out, op_id, item):
        i, name, target, tolerance = item

        def fn():
            fraz = self.FRaZ(name, target, tolerance=tolerance)
            recon = fraz.decompress(self.payloads[item][0])
            self.recons[item] = recon
            return {"out_bytes": recon.nbytes}
        self._op(out, op_id, name, fn)

    def warmup(self):
        scratch: list[dict] = []
        seen = set()
        for item in self.items:
            if item[1] not in seen:
                seen.add(item[1])
                self._compress(scratch, -1, item)
                self._decompress(scratch, -1, item)
        self.payloads.clear()
        self.recons.clear()

    def compress_phase(self):
        return self._serial(self.items, self._compress)

    def decompress_phase(self):
        return self._serial(self.items * self.plan["decode_passes"], self._decompress)

    def periods(self):
        per_field = len(self.plan["feasible"]) + len(self.plan["hard"])
        return per_field, per_field

    def verify(self, compress_ops, decompress_ops):
        for op, item in zip(compress_ops, self.items):
            i, name, target, _tolerance = item
            what = f"{name} field{i} target {target:g}"
            if op["error"] is not None:
                continue
            self._check_feasible(what, op)
            self._check_recon(what, self.fields[i], self.recons.get(item), self.payloads[item][1])


# ---------------------------------------------------------------------------
# series_reuse
# ---------------------------------------------------------------------------

class SeriesReuse(Workload):
    """Time-step reuse: each step is tuned from the previous step's bound.

    Pinned: compressor, target ratio, tolerance for ZFP (0.25, as in
    ``fixed_ratio``), one shared ``EvalCache`` per compressor.
    """

    name = "series_reuse"

    UNITS = "steps"
    SHAPES = {
        "full": {"shape": (96, 192), "steps": 80, "compressors": ["sz-interp", "mgard", "zfp"]},
        "smoke": {"shape": (24, 48), "steps": 3, "compressors": ["sz", "zfp"]},
    }
    # The second sweep replays the first on the warm cache: every probe of it
    # is a cache hit, so half of the ops pay only the final compress.  (A
    # second target whose band overlaps the first's makes that a coin flip per
    # field and seed.)  Both sweeps run at the same target.
    TARGETS = (10.0, 10.0)
    CHUNK = 10
    TOLERANCE = {"sz": 0.1, "sz-interp": 0.1, "mgard": 0.1, "zfp": 0.25}
    EVOLVING = 0.05   # amplitude of the step-to-step component, relative to the field

    @classmethod
    def generate(cls, seed, workdir, spec):
        from repro.datasets import fourier_field

        wi = sorted(WORKLOADS).index(cls.name)
        for i in range(len(spec["compressors"])):
            # a steady background (phases from the seed) plus a small component
            # that evolves from step to step
            steady = cls._field(spec["shape"], i, seed)
            evolving = fourier_field(tuple(spec["shape"]), spec["steps"],
                                     np.random.default_rng([wi, i, 1]))
            np.save(workdir / f"series{i}.npy",
                    np.stack([steady + cls.EVOLVING * step for step in evolving]))
        _save_plan(workdir, {"compressors": spec["compressors"], "steps": spec["steps"]})

    def open(self):
        from repro.cache import EvalCache
        from repro.core import FRaZ

        self.FRaZ = FRaZ
        self.series = [np.load(self.dir / f"series{i}.npy")
                       for i in range(len(self.plan["compressors"]))]
        self.caches = {name: EvalCache() for name in set(self.plan["compressors"])}
        # (sweep, field, step): CHUNK steps of every field, then the same
        # steps again (the replay), then the next CHUNK steps; each (sweep,
        # field) still sees its steps in order
        self.items = [
            (sweep, i, t)
            for start in range(0, self.plan["steps"], self.CHUNK)
            for sweep in range(len(self.TARGETS))
            for i in range(len(self.series))
            for t in range(start, min(start + self.CHUNK, self.plan["steps"]))
        ]
        self.tuners: dict[tuple[int, int], object] = {}
        self.predictions: dict[tuple[int, int], float | None] = {}
        self.payloads: dict[tuple, tuple] = {}
        self.recons: dict[tuple, np.ndarray] = {}

    def _tuner(self, sweep: int, i: int):
        key = (sweep, i)
        if key not in self.tuners:
            name = self.plan["compressors"][i]
            self.tuners[key] = self.FRaZ(name, self.TARGETS[sweep],
                                         tolerance=self.TOLERANCE[name],
                                         cache=self.caches[name])
        return self.tuners[key]

    def _compress(self, out, op_id, item):
        sweep, i, t = item
        data = self.series[i][t]
        fraz = self._tuner(sweep, i)

        def fn():
            payload, result = fraz.compress(data, prediction=self.predictions.get((sweep, i)))
            if result.feasible:
                self.predictions[(sweep, i)] = result.error_bound
            self.payloads[item] = (payload, result.error_bound)
            return {"in_bytes": data.nbytes, "stored_bytes": payload.nbytes,
                    "ratio": payload.ratio, "target": fraz.target_ratio,
                    "tolerance": fraz.tolerance, "feasible": bool(result.feasible)}
        self._op(out, op_id, f"{self.plan['compressors'][i]}/sweep{sweep}", fn)

    def _decompress(self, out, op_id, item):
        sweep, i, _t = item

        def fn():
            recon = self._tuner(sweep, i).decompress(self.payloads[item][0])
            self.recons[item] = recon
            return {"out_bytes": recon.nbytes}
        self._op(out, op_id, self.plan["compressors"][i], fn)

    def warmup(self):
        # One cold search + decode per compressor on a throw-away cache, so the
        # timed phase starts with empty shared caches, as the first sweep must.
        from repro.cache import EvalCache

        seen = set()
        for i, name in enumerate(self.plan["compressors"]):
            if name not in seen:
                seen.add(name)
                fraz = self.FRaZ(name, self.TARGETS[0], tolerance=self.TOLERANCE[name],
                                 cache=EvalCache())
                payload, _ = fraz.compress(self.series[i][0])
                fraz.decompress(payload)

    def compress_phase(self):
        return self._serial(self.items, self._compress)

    def decompress_phase(self):
        first = [item for item in self.items if item[0] == 0]
        return self._serial(first, self._decompress)

    def periods(self):
        per_chunk = min(self.CHUNK, self.plan["steps"]) * len(self.series)
        return per_chunk * len(self.TARGETS), per_chunk

    def verify(self, compress_ops, decompress_ops):
        for op, item in zip(compress_ops, self.items):
            sweep, i, t = item
            what = f"series{i} step {t} sweep {sweep}"
            if op["error"] is not None:
                continue
            self._check_feasible(what, op)
            if sweep == 0:
                self._check_recon(what, self.series[i][t], self.recons.get(item),
                                  self.payloads[item][1])


# ---------------------------------------------------------------------------
# stream_file
# ---------------------------------------------------------------------------

class StreamFile(Workload):
    """Out-of-core files through ``stream_compress`` under a memory cap.

    Pinned: compressor, objective (tolerance 0.25, so that a chunk whose ratio
    leaves the band and forces a retrain is the exception), ``max_memory``.
    """

    name = "stream_file"

    UNITS = "files"
    SHAPES = {
        # the planner divides max_memory by its 64x overhead factor: 16 chunks per file
        "full": {"shape": (64, 64, 64), "files": 4, "max_memory": 4 << 20},
        "smoke": {"shape": (16, 16, 16), "files": 1, "max_memory": 1 << 18},
    }
    #: (compressor, target ratio or None for the fixed bound, tolerance)
    CONFIGS = (("sz", 6.0, 0.25), ("zfp", 8.0, 0.25), ("sz", None, None))

    @classmethod
    def generate(cls, seed, workdir, spec):
        files = []
        for i in range(spec["files"]):
            data = cls._field(spec["shape"], i, seed)
            np.save(workdir / f"file{i}.npy", data)
            files.append({"file": f"file{i}.npy", "bound": 1e-3 * _value_range(data)})
        _save_plan(workdir, {"files": files, "max_memory": spec["max_memory"]})

    def open(self):
        from repro.stream import StreamedField, stream_compress, stream_decompress

        self.stream_compress = stream_compress
        self.stream_decompress = stream_decompress
        self.StreamedField = StreamedField
        # file-major: every block of len(CONFIGS) ops is one file
        self.items = [(c, i) for i in range(len(self.plan["files"]))
                      for c in range(len(self.CONFIGS))]

    def _paths(self, item) -> tuple[str, str, str]:
        c, i = item
        return (str(self.dir / self.plan["files"][i]["file"]),
                str(self.dir / f"out{c}_{i}.frzs"), str(self.dir / f"recon{c}_{i}.npy"))

    def _cls(self, item) -> str:
        name, target, _ = self.CONFIGS[item[0]]
        return f"{name}/" + ("fixed" if target is None else f"target{target:g}")

    def _compress(self, out, op_id, item, paths=None):
        name, target, tolerance = self.CONFIGS[item[0]]
        src, dst, _ = paths or self._paths(item)
        objective = ({"error_bound": self.plan["files"][item[1]]["bound"]}
                     if target is None else {"target_ratio": target, "tolerance": tolerance})

        def fn():
            result = self.stream_compress(src, dst, compressor=name,
                                          max_memory=self.plan["max_memory"], **objective)
            return {"in_bytes": result.original_nbytes,
                    "stored_bytes": result.compressed_nbytes, "ratio": result.ratio,
                    "target": target, "tolerance": tolerance}
        self._op(out, op_id, self._cls(item), fn)

    def _decompress(self, out, op_id, item, paths=None):
        _, src, dst = paths or self._paths(item)

        def fn():
            recon = self.stream_decompress(src, out=dst)
            nbytes = recon.nbytes
            del recon  # a memmap of dst: verification reopens it
            return {"out_bytes": nbytes}
        self._op(out, op_id, self._cls(item), fn)

    def warmup(self):
        scratch: list[dict] = []
        for c in range(len(self.CONFIGS)):
            src, _, _ = self._paths((c, 0))
            paths = (src, str(self.dir / "warm.frzs"), str(self.dir / "warm.npy"))
            self._compress(scratch, -1, (c, 0), paths)
            self._decompress(scratch, -1, (c, 0), paths)
        for leftover in ("warm.frzs", "warm.npy"):
            (self.dir / leftover).unlink(missing_ok=True)

    def compress_phase(self):
        return self._serial(self.items, self._compress)

    def decompress_phase(self):
        return self._serial(self.items, self._decompress)

    def periods(self):
        return len(self.CONFIGS), len(self.CONFIGS)

    def verify(self, compress_ops, decompress_ops):
        for op, item in zip(decompress_ops, self.items):
            if op["error"] is not None:
                continue
            src, packed, recon_path = self._paths(item)
            original = np.load(src, mmap_mode="r")
            recon = np.load(recon_path, mmap_mode="r")
            what = f"{self._cls(item)} file{item[1]}"
            if not self._check(recon.shape == original.shape and recon.dtype == original.dtype,
                               f"{what}: decoded to {recon.shape}/{recon.dtype}"):
                continue
            # every chunk carries the bound it was compressed with
            with self.StreamedField(packed) as field:
                for k in range(field.n_chunks):
                    where = field.chunk_spec(k).slices
                    self._check_recon(f"{what} chunk {k}", np.asarray(original[where]),
                                      np.asarray(recon[where]),
                                      float(field.chunk_meta(k)["error_bound"]))


# ---------------------------------------------------------------------------
# serve_closed / gateway_closed
# ---------------------------------------------------------------------------

class ServeClosed(Workload):
    """Light jobs through one ``ServiceServer``, 2 closed-loop clients.

    Pinned: ``port=0``, ``workers=2``; the job mix in :meth:`generate`.
    """

    name = "serve_closed"
    clients = CLIENTS

    UNITS = "distinct"
    SHAPES = {
        # `distinct` inline arrays, then a third as many re-sent earlier bodies.
        # The sizes keep each job class inside one round of the client's 0.05 s
        # poll: a tune takes two rounds, every other job one.
        "full": {"shapes": [(32, 32), (40, 40)], "distinct": 96},
        "smoke": {"shapes": [(16, 16), (24, 24)], "distinct": 5},
    }
    IDENTITY_SAMPLES = 10

    @classmethod
    def generate(cls, seed, workdir, spec):
        jobs = []
        for i in range(spec["distinct"]):
            # One spectrum for every array, phases from (seed, i): the arrays are
            # distinct but cost alike, so a job class is one latency mode.
            data = cls._field(spec["shapes"][i % len(spec["shapes"])], 0,
                              seed * spec["distinct"] + i)
            np.save(workdir / f"array{i}.npy", data)
            mix = i % 5  # 40 % tune, 40 % fixed-bound compress, 20 % zfp fixed-ratio compress
            if mix < 2:
                job = {"kind": "tune", "compressor": "sz", "target_ratio": 8.0,
                       "tolerance": 0.2}
            elif mix < 4:
                job = {"kind": "compress", "compressor": "sz",
                       "error_bound": 1e-3 * _value_range(data)}
            else:
                job = {"kind": "compress", "compressor": "zfp", "target_ratio": 6.0,
                       "tolerance": 0.25}
            jobs.append(job)
        # which earlier bodies come back is part of the plan, not of the seed
        repeats = [int(j) for j in np.random.default_rng(spec["distinct"]).integers(
            0, spec["distinct"], spec["distinct"] // 3)]
        _save_plan(workdir, {"jobs": jobs, "order": list(range(spec["distinct"])) + repeats})

    # -- servers -----------------------------------------------------------
    def _start(self, **scheduler_kwargs) -> str:
        """Start the service under test; returns the URL clients talk to."""
        from repro.serve import ServiceServer

        self.servers = [ServiceServer(port=0, workers=2, **scheduler_kwargs).start()]
        self.node_urls = [self.servers[0].url]
        return self.servers[0].url

    def _stop(self) -> None:
        for server in reversed(self.servers):
            server.shutdown()
        self.servers = []

    def open(self):
        from repro.api import encode_array
        from repro.serve import ServiceClient

        self.ServiceClient = ServiceClient
        self.arrays = [np.load(self.dir / f"array{i}.npy")
                       for i in range(len(self.plan["jobs"]))]
        self.bodies = []
        for i, job in enumerate(self.plan["jobs"]):
            body = dict(job, data_b64=encode_array(self.arrays[i]))
            if body["kind"] == "compress":
                body["output"] = str(self.dir / f"out{i}.frz")
            self.bodies.append(body)
        # an item is (array index, wire body)
        self.items = [(i, self.bodies[i]) for i in self.plan["order"]]
        self.bounds: dict[int, float] = {}
        self.servers: list = []
        self.url = self._start()

    @staticmethod
    def _cls(body: dict) -> str:
        objective = "fixed" if body.get("error_bound") is not None else "ratio"
        return f"{body['kind']}/{body.get('compressor', '-')}/{objective}"

    def _record(self, array: int, body: dict, result: dict) -> dict:
        nbytes = self.arrays[array].nbytes
        if body["kind"] == "decompress":
            return {"out_bytes": nbytes}
        tuning = result if body["kind"] == "tune" else result.get("tuning")
        if body["kind"] == "compress":
            self.bounds[array] = result["error_bound"]
        return {"in_bytes": nbytes, "stored_bytes": nbytes / result["ratio"],
                "ratio": result["ratio"], "target": body.get("target_ratio"),
                "tolerance": body.get("tolerance"),
                "feasible": tuning["feasible"] if tuning else None}

    def _runner(self):
        client = self.ServiceClient(self.url)

        def run_one(out, op_id, item):
            array, body = item

            def fn():
                ticket = client.submit(body)
                return self._record(array, body, client.result(ticket["job_id"]))
            self._op(out, op_id, self._cls(body), fn)
        return run_one

    def warmup(self):
        # One job per class; the first also spawns the process pool.  Bodies
        # are perturbed copies, so the timed phase meets a cache that has
        # never seen its arrays.
        from repro.api import encode_array

        run_one = self._runner()
        scratch: list[dict] = []
        seen = set()
        for i, body in enumerate(self.bodies):
            if self._cls(body) in seen:
                continue
            seen.add(self._cls(body))
            warm = dict(body, data_b64=encode_array(self.arrays[i] * np.float32(1.5)))
            if "output" in warm:
                warm["output"] = str(self.dir / "warm.frz")
            run_one(scratch, -1, (i, warm))
            if "output" in warm:
                run_one(scratch, -1, (i, {"kind": "decompress", "input": warm["output"],
                                          "output": str(self.dir / "warm.npy")}))
        self.bounds.clear()
        bad = [op["error"] for op in scratch if op["error"]]
        if bad:
            raise RuntimeError(f"warm-up job failed: {bad[0]}")

    def compress_phase(self):
        return self._closed_loop(self.items, self._runner)

    def decompress_phase(self):
        # one decompress job per distinct output the compress phase wrote
        self.decode_items = [
            (i, {"kind": "decompress", "input": body["output"],
                 "output": str(self.dir / f"recon{i}.npy")})
            for i, body in enumerate(self.bodies) if i in self.bounds
        ]
        return self._closed_loop(self.decode_items, self._runner)

    def periods(self):
        # the job mix repeats every 5 arrays and the shapes every 2: 10 jobs,
        # of which 6 write an output
        return 10, 6

    def verify(self, compress_ops, decompress_ops):
        from repro.api import CompressionRequest, execute, plan

        for op, (array, body) in zip(compress_ops, self.items):
            if op["error"] is None:
                self._check_feasible(f"job {op['op']} ({op['cls']})", op)
        for op, (array, body) in zip(decompress_ops, self.decode_items):
            if op["error"] is None:
                self._check_recon(f"decompress of out{array}.frz", self.arrays[array],
                                  np.load(body["output"]), self.bounds[array])
        # The README's cross-entry-point promise: the .frz the service wrote is
        # byte-identical to api.execute of the same request.
        written = [i for i, _ in self.decode_items]
        step = max(1, len(written) // self.IDENTITY_SAMPLES)
        for i in written[::step][: self.IDENTITY_SAMPLES]:
            local = str(self.dir / f"local{i}.frz")
            execute(plan(CompressionRequest.from_dict(dict(self.bodies[i], output=local))))
            self._check(Path(local).read_bytes() == Path(self.bodies[i]["output"]).read_bytes(),
                        f"out{i}.frz differs from api.execute of the same request")

    # -- traced runs -------------------------------------------------------
    def scrape(self) -> dict:
        """``/stats`` of every node (and the gateway), ``/metrics`` timed once."""
        client = self.ServiceClient(self.url)
        t0 = time.perf_counter()
        client.metrics_text()
        return {"metrics_render_s": time.perf_counter() - t0,
                "front": client.stats(),
                "nodes": [self.ServiceClient(url).stats() for url in self.node_urls]}

    def api_direct(self) -> list[float]:
        """A sample of the mix's bodies through ``execute(plan(request))``,
        serial, in this process: what the jobs cost without the service."""
        from repro.api import CompressionRequest, execute, plan

        seconds = []
        for i, body in list(enumerate(self.bodies))[::4]:
            if "output" in body:
                body = dict(body, output=str(self.dir / f"direct{i}.frz"))
            request = CompressionRequest.from_dict(body)
            t0 = time.perf_counter()
            execute(plan(request))
            seconds.append(time.perf_counter() - t0)
        return seconds

    def layer_extras(self):
        extras = {"scrape": self.scrape()}
        self.tracer.enabled = True   # the replay's kernel spans are this workload's kernel rows
        extras["api_execute_seconds"] = self.api_direct()
        self.tracer.enabled = False
        extras.update(self._tracing_tax())
        return extras

    def _tracing_tax(self) -> dict:
        """The compress phase once more on a service with ``trace_sample=0``."""
        self._stop()
        self.url = self._start(trace_sample=0.0)
        self.warmup()
        _, wall = self.compress_phase()
        return {"untraced_service_wall_s": wall}

    def close(self):
        self._stop()


class GatewayClosed(ServeClosed):
    """The same traffic one tier up: a gateway over two 1-worker nodes.

    Pinned: ``port=0`` everywhere, ``workers=1`` per node.
    """

    name = "gateway_closed"

    NODES = 2

    def _start(self, **scheduler_kwargs) -> str:
        from repro.gateway import GatewayServer
        from repro.serve import ServiceClient, ServiceServer

        gateway = GatewayServer(port=0).start()
        self.servers = [gateway]
        for n in range(self.NODES):
            self.servers.append(ServiceServer(port=0, workers=1, register=gateway.url,
                                              node_id=f"n{n}", **scheduler_kwargs).start())
        self.node_urls = [server.url for server in self.servers[1:]]
        client = ServiceClient(gateway.url)
        deadline = time.monotonic() + 30.0
        while client.stats()["fleet"]["counts"].get("active", 0) < self.NODES:
            if time.monotonic() > deadline:
                raise RuntimeError("nodes did not register with the gateway in 30 s")
            time.sleep(0.02)
        return gateway.url

    def _tracing_tax(self) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in
             (FixedBound, FixedRatio, SeriesReuse, StreamFile, ServeClosed, GatewayClosed)}


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Max resident set of this process and of every child it has reaped.

    ``ru_maxrss`` of a process survives ``exec``, so for this process it would
    include the parent that generated the inputs; ``VmHWM`` belongs to the
    address space and starts afresh.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    except OSError:
        pass
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # both in KiB on Linux


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="ledger child: runs one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--generate", nargs=3, metavar=("SEED", "SIZE", "SCALE"),
                        help="write the inputs into --dir and stop")
    args = parser.parse_args(argv)

    if args.generate:
        seed, size, scale = args.generate
        cls = WORKLOADS[args.workload]
        cls.generate(int(seed), args.dir, cls.spec(size, float(scale)))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload](args.dir, tracer)
    result: dict = {"workload": args.workload, "traced": bool(args.trace)}
    try:
        workload.open()
        workload.warmup()
        result["ready_at"] = time.time()
        if not args.setup_only:
            if tracer is not None:
                tracer.enabled = True
            compress_ops, compress_wall = workload.compress_phase()
            decompress_ops, decompress_wall = workload.decompress_phase()
            if tracer is not None:
                tracer.enabled = False
                result["span_top_seconds"] = tracer.top_seconds()
            workload.verify(compress_ops, decompress_ops)
            result.update(
                compress_ops=compress_ops, compress_wall_s=compress_wall,
                decompress_ops=decompress_ops, decompress_wall_s=decompress_wall,
                clients=workload.clients, periods=workload.periods(),
            )
            if tracer is not None:
                result["extras"] = workload.layer_extras()
            result["checks"] = workload.checks
            result["check_failures"] = workload.failures
    finally:
        workload.close()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["spans"] = {"aggregates": tracer.aggregates(), "records": tracer.records(),
                           "missing": tracer.missing}
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
