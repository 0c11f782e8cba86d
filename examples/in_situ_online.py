#!/usr/bin/env python
"""Paper future work #2: online in-situ fixed-ratio compression.

A simulation emits snapshots as it runs; each snapshot must leave the node
compressed at a fixed ratio (I/O budget) without stalling the solver.
:class:`repro.core.online.OnlineFRaZ` keeps the cost at one compression
per snapshot in steady state, retrains automatically when the physics
changes regime, and every payload stays error-bounded.

The script simulates a run with a mid-stream regime change (a "shock"
arrives at step 12) and archives every compressed snapshot into one
random-access ``.frza`` file — the paper's per-time-step access pattern.

Run:  python examples/in_situ_online.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.online import OnlineFRaZ
from repro.io.files import Archive
from repro.pressio.registry import make_compressor


def simulate_snapshots(n_steps=24, shape=(48, 48, 24), shock_at=12):
    """Smoothly evolving field; a sharp front appears at ``shock_at``."""
    rng = np.random.default_rng(7)
    x, y, z = np.meshgrid(*(np.linspace(0, 4, s) for s in shape), indexing="ij")
    for t in range(n_steps):
        field = np.sin(x + 0.05 * t) * np.cos(y - 0.03 * t) * np.exp(-0.1 * z)
        if t >= shock_at:
            front = 1.0 / (1.0 + np.exp(-40 * (x - 0.15 * (t - shock_at) - 1.0)))
            field = field + 2.0 * front
        yield (field + 0.01 * rng.standard_normal(shape)).astype(np.float32)


def main() -> None:
    target = 10.0
    tuner = OnlineFRaZ(compressor="sz", target_ratio=target, tolerance=0.1)
    archive_path = Path(tempfile.gettempdir()) / "in_situ_run.frza"

    print(f"in-situ run: target {target}:1, band [{tuner.spec.band[0]:.1f}, "
          f"{tuner.spec.band[1]:.1f}]\n")
    print(f"{'step':>4} {'ratio':>7} {'bound':>10} {'retrained':>10} {'ms':>7}")

    with Archive.create(archive_path) as archive:
        for t, snapshot in enumerate(simulate_snapshots()):
            result = tuner.push(snapshot)
            marker = " <-- shock" if t == 12 else ""
            print(f"{t:>4} {result.ratio:>7.2f} {result.error_bound:>10.3e} "
                  f"{str(result.retrained):>10} {result.seconds * 1e3:>7.1f}"
                  f"{marker}")
            archive.add(
                f"field/t{t:03d}",
                result.payload,
                make_compressor("sz", error_bound=result.error_bound),
                metadata={"step": t, "in_band": result.in_band},
            )

    print(f"\nretrained {tuner.retrain_count}/{tuner.frames_seen} steps "
          f"(cold start + regime changes only)")

    # Random access: pull one mid-run snapshot back out.
    reader = Archive.open(archive_path)
    data, meta = reader.load("field/t015")
    print(f"random access t015: shape {data.shape}, "
          f"stored ratio {meta['ratio']:.2f}:1, in_band={meta['user']['in_band']}")
    archive_path.unlink()


if __name__ == "__main__":
    main()
