"""Exact per-step results of the time-step and field loops (Sec. V-C, Alg. 3).

Each step is pinned as ``(error_bound, ratio, evaluations)`` together with
the steps that retrained, for sz and zfp over a small series that drifts
slowly and then turns rough at step 3.  Field ``b`` of zfp is infeasible at
every step, so it also pins the loop's carry rule (only a feasible bound is
carried) and the per-region seeds of a full search.  How the settings reach
the search may change; these numbers may not.
"""

import numpy as np
import pytest

from repro.cache.evalcache import EvalCache
from repro.core import FRaZ, SearchSpec, tune_fields, tune_time_series
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.pressio.registry import make_compressor


def _drifting(n_steps=5, shape=(16, 16, 8), jump_at=3, seed=7, scale=1.0):
    r = np.random.default_rng(seed)
    x, y, z = np.meshgrid(
        np.linspace(0, 4, shape[0]), np.linspace(0, 4, shape[1]),
        np.linspace(0, 4, shape[2]), indexing="ij",
    )
    steps = []
    for t in range(n_steps):
        noise = 0.2 if t >= jump_at else 0.01
        steps.append((scale * (np.sin(x + 0.05 * t) * np.cos(y + z)
                               + noise * r.standard_normal(shape))).astype(np.float32))
    return steps


_FIELD_DATA = {"a": _drifting(), "b": _drifting(seed=8, scale=3.0)}


def _summary(series_result):
    steps = [(s.error_bound, s.ratio, s.evaluations) for s in series_result.steps]
    return steps, series_result.retrain_steps


_SERIES = {"sz": ([(0.0173784060829, 10.666666666666666, 7),
         (0.0173784060829, 10.356510745891278, 1),
         (0.0173784060829, 10.317380352644836, 1),
         (0.258729736587, 10.489116517285531, 3),
         (0.258729736587, 10.356510745891278, 1)],
        [0, 3]),
 "zfp": ([(0.0686405403702, 10.38276299112801, 8),
          (0.0686405403702, 10.189054726368159, 1),
          (0.0686405403702, 10.252816020025032, 1),
          (0.729147434341, 10.252816020025032, 13),
          (0.729147434341, 10.026927784577722, 1)],
         [0, 3])}

_FIELDS = {"sz": {"a": ([(0.0173784060829, 10.666666666666666, 7),
               (0.0173784060829, 10.356510745891278, 1),
               (0.0173784060829, 10.317380352644836, 1),
               (0.258729736587, 10.489116517285531, 3),
               (0.258729736587, 10.356510745891278, 1)],
              [0, 3]),
        "b": ([(0.0531093619482, 10.570322580645161, 7),
               (0.0531093619482, 10.475703324808185, 1),
               (0.0531093619482, 10.475703324808185, 1),
               (0.810679539131, 10.597671410090557, 3),
               (0.810679539131, 10.995973154362416, 1)],
              [0, 3])},
 "zfp": {"a": ([(0.0686405403702, 10.38276299112801, 8),
                (0.0686405403702, 10.189054726368159, 1),
                (0.0686405403702, 10.252816020025032, 1),
                (0.729147434341, 10.252816020025032, 13),
                (0.729147434341, 10.026927784577722, 1)],
               [0, 3]),
         "b": ([(0.174913410648, 8.551148225469728, 62),
                (0.180384028242, 8.462809917355372, 62),
                (0.175683428816, 8.780278670953912, 62),
                (2.01203813167, 11.175989085948158, 72),
                (1.89605236774, 8.846652267818575, 77)],
               [0, 1, 2, 3, 4])}}

_DATASET = {"sz": {"a": ([(0.0173784060829, 10.666666666666666, 7),
               (0.0173784060829, 10.356510745891278, 1),
               (0.0173784060829, 10.317380352644836, 1),
               (0.258729736587, 10.489116517285531, 3),
               (0.258729736587, 10.356510745891278, 1)],
              [0, 3]),
        "b": ([(0.0531093619482, 10.570322580645161, 7),
               (0.0531093619482, 10.475703324808185, 1),
               (0.0531093619482, 10.475703324808185, 1),
               (0.810679539131, 10.597671410090557, 3),
               (0.810679539131, 10.995973154362416, 1)],
              [0, 3])},
 "zfp": {"a": ([(0.0686405403702, 10.38276299112801, 8),
                (0.0686405403702, 10.189054726368159, 1),
                (0.0686405403702, 10.252816020025032, 1),
                (0.729147434341, 10.252816020025032, 13),
                (0.729147434341, 10.026927784577722, 1)],
               [0, 3]),
         "b": ([(0.174913410648, 8.551148225469728, 62),
                (0.180384028242, 8.462809917355372, 62),
                (0.175683428816, 8.780278670953912, 62),
                (2.00982832661, 11.175989085948158, 72),
                (1.89605236774, 8.846652267818575, 77)],
               [0, 1, 2, 3, 4])}}


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_time_series_pinned(name):
    res = tune_time_series(make_compressor(name), _drifting(),
                           SearchSpec(10.0, tolerance=0.1, seed=3))
    assert _summary(res) == _SERIES[name]


@pytest.mark.parametrize("executor", [SerialExecutor, lambda: ProcessExecutor(2)],
                         ids=["serial", "process"])
@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_fields_pinned(name, executor):
    res = tune_fields(make_compressor(name), _FIELD_DATA, SearchSpec(10.0, seed=3),
                      executor=executor(), cache=EvalCache())
    assert {k: _summary(v) for k, v in res.fields.items()} == _FIELDS[name]


@pytest.mark.parametrize("name", sorted(_DATASET))
def test_tune_dataset_pinned(name):
    res = FRaZ(name, 10.0, seed=5).tune_dataset(_FIELD_DATA)
    assert {k: _summary(v) for k, v in res.fields.items()} == _DATASET[name]
