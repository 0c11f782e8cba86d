"""Termination oracle for the region search's exclusion cutoff.

A region worker may stop early as ``excluded`` once its probes rule the
acceptance band out on its whole interval (``repro.optimize.lipo.excludes``).
Stopping a region that could have succeeded would lose a convergent case,
so synthetic ratio curves behind a fake compressor are checked against a
dense 4096-point sweep of every region:

* monotone curves (smooth, ZFP-like staircase, plateau below the target,
  floor above it): a region whose interval meets the sweep's in-band set
  never stops as ``excluded`` — exact, because two probes on opposite
  sides of the band never exclude and a monotone curve that enters the
  band inside a region puts the region's end points on opposite sides;
* non-monotone curves (saw-tooth, single spike; Fig. 3): the same whenever
  an in-band run is at least half a region wide, because the probe at the
  region's midpoint then lands in it;
* with and without the rule the whole search gives the same verdict, and on
  the monotone curves the same bound (teeth narrower than the probe spacing
  can hide an in-band tip from three probes that alias with them: a later
  region then supplies the bound, which is why only the verdict is pinned
  on the saw-tooth);
* every ``feasible`` is in band, and a target off the whole curve costs a
  region three probes (both ends and the middle) wherever the curve's
  distance from the target varies by less than 2x over the region: always
  for a target 4x above the curve, and for the floor-above-the-target case
  of Fig. 7.  A curve that climbs 10x inside one region is not excluded
  from three probes, and should not be.

The golden table pins the ledger's feasible ``fixed_ratio`` searches on two
of its fields: recorded at the parent commit, before the exclusion cutoff
existed, so a rule that moved or lost one of them would show here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core import FRaZ
from repro.core.loss import acceptance_band
from repro.core.regions import split_regions
from repro.core.training import SearchSpec, train
from repro.core.worker import worker_task
from repro.datasets import fourier_field
from repro.pressio.compressor import CompressedField, Compressor

NBYTES = 2**20
DATA = np.linspace(0.0, 1.0, NBYTES // 4, dtype=np.float32)  # value range 1
SWEEP = 4096
TOLERANCE = 0.1


def _smooth(e):
    return 1.0 + 40.0 * np.sqrt(e)


def _staircase(e):
    # ZFP accuracy mode: the ratio only moves when the bound crosses an octave
    return 2.0 + 3.0 * (np.floor(np.log2(e)) + 30.0)


def _plateau(e):
    return np.minimum(1.0 + 400.0 * e, 12.0)


def _floor(e):
    return np.maximum(9.0, 60.0 * e)


def _sawtooth(e):
    return 4.0 + 30.0 * e + 3.0 * (40.0 * e % 1.0)


def _spike(e):
    return 6.0 + 10.0 * e + 30.0 * np.exp(-(((e - 0.4) / 0.04) ** 2))


CURVES = {"smooth": _smooth, "staircase": _staircase, "plateau": _plateau, "floor": _floor,
          "sawtooth": _sawtooth, "spike": _spike}
MONOTONE = ("smooth", "staircase", "plateau", "floor")


def _ratios(curve: str, bounds) -> np.ndarray:
    """What compressing at ``bounds`` yields: the curve, on whole payload bytes."""
    return NBYTES / np.maximum(1.0, np.rint(NBYTES / CURVES[curve](np.asarray(bounds))))


@dataclass(frozen=True)
class CurveCompressor(Compressor):
    """A compressor whose ratio at bound ``e`` is ``CURVES[curve](e)``."""

    curve: str = "smooth"
    error_bound: float = 1.0
    name = "curve"

    def with_error_bound(self, error_bound: float) -> "CurveCompressor":
        return replace(self, error_bound=float(error_bound))

    def compress(self, data: np.ndarray) -> CompressedField:
        return CompressedField(bytes(int(NBYTES / _ratios(self.curve, self.error_bound))), NBYTES)

    def decompress(self, field):  # pragma: no cover - the search never decodes
        raise NotImplementedError


def _sweep(curve: str, region: tuple[float, float]) -> np.ndarray:
    """Ratios at 4096 points of ``region``, spaced as its search is (log when wide)."""
    lo, hi = region
    points = np.geomspace(lo, hi, SWEEP) if hi / lo > 1e3 else np.linspace(lo, hi, SWEEP)
    return _ratios(curve, points)


def _longest_run(mask: np.ndarray) -> int:
    best = run = 0
    for hit in mask:
        run = run + 1 if hit else 0
        best = max(best, run)
    return best


def _region_outcomes(curve: str, target: float):
    """Per region: the worker's result, the sweep's ratios and its in-band mask."""
    comp = CurveCompressor(curve)
    lo_band, hi_band = acceptance_band(target, TOLERANCE)
    for i, region in enumerate(split_regions(*comp.default_bound_range(DATA), 12)):
        result = worker_task(comp, DATA, target, TOLERANCE, region, seed=i)
        ratios = _sweep(curve, region)
        yield result, ratios, (ratios >= lo_band) & (ratios <= hi_band)


# (curve, targets the curve reaches somewhere)
REACHED = [("smooth", (5.0, 20.0, 38.0)), ("staircase", (50.0, 80.0, 89.0)),
           ("plateau", (6.0, 12.0)), ("floor", (9.0, 30.0, 55.0)),
           ("sawtooth", (8.0, 20.0, 35.0)), ("spike", (10.0, 25.0, 40.0))]


@pytest.mark.parametrize("curve,target", [(c, t) for c, ts in REACHED for t in ts])
def test_no_region_that_could_succeed_is_excluded(curve, target):
    lo_band, hi_band = acceptance_band(target, TOLERANCE)
    met = 0
    for result, _ratios_, in_band in _region_outcomes(curve, target):
        if result.feasible:
            assert lo_band <= result.ratio <= hi_band
            assert result.stop_reason == "cutoff"
        must_not_exclude = (in_band.any() if curve in MONOTONE
                            else _longest_run(in_band) >= SWEEP // 2)
        if must_not_exclude:
            met += 1
            assert result.stop_reason != "excluded", (result.region, result.evaluations)
    if curve in MONOTONE:
        assert met, "the target was chosen inside the curve's range"


@pytest.mark.parametrize("curve", sorted(CURVES))
@pytest.mark.parametrize("side", ["above", "below"])
def test_target_off_the_curve_costs_a_region_three_probes(curve, side):
    everywhere = np.concatenate([
        _sweep(curve, r) for r in split_regions(*CurveCompressor().default_bound_range(DATA), 12)
    ])
    target = 4.0 * everywhere.max() if side == "above" else everywhere.min() / 4.0
    quick = 0
    for result, ratios, in_band in _region_outcomes(curve, target):
        assert not in_band.any() and not result.feasible and result.stop_reason != "cutoff"
        miss = np.abs(ratios - target) / (TOLERANCE * target)
        if miss.max() < 2.0 * miss.min() - 1.0:
            # Then both ends and the middle already exclude, whatever the shape.
            quick += 1
            assert (result.stop_reason, result.evaluations) == ("excluded", 3)
    if side == "above" or curve == "floor":
        assert quick == 12


@pytest.mark.parametrize("curve,target", [(c, t) for c, ts in REACHED for t in ts])
def test_whole_search_agrees_with_the_search_without_exclusion(curve, target, monkeypatch):
    comp = CurveCompressor(curve)
    stopped = train(comp, DATA, SearchSpec(target, tolerance=TOLERANCE))
    monkeypatch.setattr("repro.optimize.global_search.excludes", lambda *a: False)
    full = train(comp, DATA, SearchSpec(target, tolerance=TOLERANCE))
    assert stopped.feasible == full.feasible
    assert stopped.evaluations <= full.evaluations
    if full.feasible and curve in MONOTONE:
        assert (stopped.error_bound, stopped.ratio) == (full.error_bound, full.ratio)


def test_excluded_regions_are_a_prefix_of_the_full_search(monkeypatch):
    """The rule ends a search; it never moves a probe."""
    comp = CurveCompressor("plateau")
    region = split_regions(*comp.default_bound_range(DATA), 12)[5]
    seen: list[list[float]] = []

    class Recording(CurveCompressor):
        def compress(self, data):
            seen[-1].append(self.error_bound)
            return super().compress(data)

    seen.append([])
    stopped = worker_task(Recording("plateau"), DATA, 40.0, TOLERANCE, region, seed=5)
    monkeypatch.setattr("repro.optimize.global_search.excludes", lambda *a: False)
    seen.append([])
    full = worker_task(Recording("plateau"), DATA, 40.0, TOLERANCE, region, seed=5)
    assert (stopped.stop_reason, full.stop_reason) == ("excluded", "budget")
    assert 3 <= len(seen[0]) < len(seen[1]) == 16
    assert seen[1][: len(seen[0])] == seen[0]


# ---------------------------------------------------------------------------
# Golden table: FRaZ(name, target, tolerance=tol).tune(field) for the ledger's
# feasible `fixed_ratio` configs on its fields 0 and 1 at seed 17, recorded at
# commit 0dfa9bc (the parent of the exclusion cutoff) before any source edit:
# (field, compressor, target, tolerance, error_bound, ratio, feasible, evaluations)
# ---------------------------------------------------------------------------
GOLDEN = [
    (0, "sz", 8, 0.1, 0.0778944651991, 7.574664817383264, True, 8),
    (0, "sz", 16, 0.1, 0.783837270557, 14.65474060822898, True, 2),
    (0, "sz-interp", 8, 0.1, 0.109502330461, 7.447272727272727, True, 10),
    (0, "sz-interp", 16, 0.1, 0.580634086005, 15.708533077660594, True, 8),
    (0, "zfp", 8, 0.25, 0.783837270557, 9.282719546742209, True, 2),
    (0, "zfp", 16, 0.25, 1.49641659965, 12.3003003003003, True, 18),
    (0, "mgard", 8, 0.1, 0.312779435946, 7.370220422852002, True, 8),
    (0, "mgard", 16, 0.1, 1.49641659965, 15.297852474323063, True, 18),
    (1, "sz", 8, 0.1, 0.0581969362029, 7.757575757575758, True, 8),
    (1, "sz", 16, 0.1, 0.770782645234, 15.355201499531397, True, 2),
    (1, "sz-interp", 8, 0.1, 0.065080951154, 7.337214509628303, True, 11),
    (1, "sz-interp", 16, 0.1, 0.325893611797, 15.072677092916283, True, 9),
    (1, "zfp", 8, 0.25, 0.144562130996, 6.27980068991951, True, 7),
    (1, "zfp", 16, 0.25, 1.47149413326, 14.881017257039055, True, 18),
    (1, "mgard", 8, 0.1, 0.195942591723, 7.403524627202892, True, 9),
    (1, "mgard", 16, 0.1, 1.05106724044, 16.582995951417004, True, 19),
]


@pytest.fixture(scope="module")
def ledger_fields():
    # benchmarks/ledger/workloads.py: seeded_field((16, 16, 16), [workload 1, field i], seed 17)
    return [fourier_field((16, 16, 16), 2, np.random.default_rng([1, i]), drift=18.0)[1]
            for i in (0, 1)]


@pytest.mark.parametrize("row", GOLDEN, ids=lambda r: f"field{r[0]}-{r[1]}-{r[2]}")
def test_golden_feasible_searches_keep_bound_and_ratio(row, ledger_fields):
    i, name, target, tolerance, error_bound, ratio, feasible, evaluations = row
    result = FRaZ(name, float(target), tolerance=tolerance).tune(ledger_fields[i])
    assert (result.error_bound, result.ratio, result.feasible) == (error_bound, ratio, feasible)
    assert result.evaluations <= evaluations
