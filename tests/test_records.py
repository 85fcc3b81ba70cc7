"""Reports and sweep rows built by ``kernels._record`` are the records their
frozen dataclass ``__init__`` builds."""

import dataclasses

import numpy as np
import pytest

from subspace_align import NORM_KINDS, BoundReport, ExperimentConfig, evaluate_instance, run_sweep
from subspace_align.experiments import SweepRow

from support import RANK_RTOL, bench_module


def _bench_instances(count, seed):
    """`count` instances of the benchmark's criterion-02 mix, drawn from `seed`
    as its ``instances`` workload draws its pool."""
    workloads = bench_module("workloads")
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < count:
        inst = workloads._pinned_instance(rng)
        if inst is not None:
            pool.append(inst)
    return pool


def _assert_is_its_dataclass_record(obj):
    cls = type(obj)
    names = [f.name for f in dataclasses.fields(cls)]
    # a field added to the class but not to the call site is missing here
    assert set(vars(obj)) == set(names)
    rebuilt = cls(**vars(obj))
    assert obj == rebuilt and hash(obj) == hash(rebuilt)
    assert repr(obj) == repr(rebuilt)
    assert list(dataclasses.asdict(obj)) == names
    assert dataclasses.asdict(obj) == dataclasses.asdict(rebuilt)
    changed = dataclasses.replace(obj, measured=-1.0)
    assert changed.measured == -1.0 and changed != obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.measured = 0.0


def test_every_report_of_the_criterion_02_mix():
    reports = [
        rep
        for x, y, d, _, _ in _bench_instances(300, seed=7)
        for rep in evaluate_instance(x, y, d, NORM_KINDS, rtol=RANK_RTOL)
    ]
    assert len(reports) == 900
    assert {rep.regime for rep in reports} == {"full_rank", "rank_deficient"}
    for rep in reports:
        assert type(rep) is BoundReport
        _assert_is_its_dataclass_record(rep)


@pytest.mark.parametrize("figure", [1, 2, 3])
def test_every_row_of_the_figures(figure):
    config = ExperimentConfig(rank_deficiency=figure - 1)
    rows = run_sweep(config)
    assert len(rows) == len(config.deltas) * len(config.norms)
    for row in rows:
        assert type(row) is SweepRow and not row.flag
        _assert_is_its_dataclass_record(row)
