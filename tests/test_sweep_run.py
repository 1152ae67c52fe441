"""The per-sweep state object (``SweepRun``) and the single config path.

A run owns everything one segmented sweep mutates — the fault schedule
and its attempt counter, the resolved stack width, the prefix caches —
so runs sharing one engine, and ``measure`` calls on that engine, cannot
leak knobs into each other.  Config validation happens once, in
``SensitivityConfig``.
"""

import numpy as np
import pytest

from repro.core import SensitivityConfig
from repro.core.sensitivity import SensitivityEngine, SweepRun
from repro.nn import Linear, ReLU, Sequential
from repro.quant import QuantConfig, QuantizedWeightTable
from repro.robustness import FaultPlan, FaultSpec, InjectedWorkerCrash


class _QLayer:
    def __init__(self, idx, name, module):
        self.index, self.name, self.module = idx, name, module

    @property
    def weight(self):
        return self.module.weight

    @property
    def num_params(self):
        return self.module.weight.size


@pytest.fixture(scope="module")
def mlp_engine():
    rng = np.random.default_rng(0)
    mods = []
    # Wide enough that stacked GEMMs round differently from the small
    # sequential ones, so a run that executed another run's stack width
    # would show up as a bitwise mismatch.
    for k in range(5):
        mods.append(Linear(64 if k else 4, 64, rng=rng))
        mods.append(ReLU())
    mods.append(Linear(64, 3, rng=rng))
    model = Sequential(*mods)
    model.eval()
    linears = [m for m in mods if isinstance(m, Linear)]
    layers = [_QLayer(i, f"fc{i}", m) for i, m in enumerate(linears)]
    table = QuantizedWeightTable(layers, QuantConfig(bits=(4, 8)))
    data_rng = np.random.default_rng(1)
    x = data_rng.normal(size=(20, 4)).astype(np.float32)
    y = data_rng.integers(0, 3, size=20)
    return SensitivityEngine(model, table, strategy="segmented"), x, y


class TestRunIsolation:
    def test_fault_plan_survives_unrelated_measure(self, mlp_engine):
        engine, x, y = mlp_engine
        plan = FaultPlan(seed=0, faults=(FaultSpec("worker_crash", at=3),))
        run = SweepRun(engine, x, y, mode="full", batch_size=8, fault_plan=plan)
        with pytest.raises(InjectedWorkerCrash):
            run.run_group(3)
        engine.measure(x, y, batch_size=8)
        # The run still owns its schedule: the engine call reset nothing.
        with pytest.raises(InjectedWorkerCrash):
            run.run_group(3)

    def test_interleaved_runs_match_solo_runs_bitwise(self, mlp_engine):
        engine, x, y = mlp_engine

        def open_run(k):
            return SweepRun(engine, x, y, mode="full", batch_size=8, eval_batch_k=k)

        groups = range(len(open_run(1).plan.groups))
        solo = {k: open_run(k).run_groups(groups) for k in (1, 4)}
        runs = {k: open_run(k) for k in (1, 4)}
        interleaved = {1: {}, 4: {}}
        for gi in groups:
            for k in (1, 4):
                interleaved[k].update(runs[k].run_group(gi))
        for k in (1, 4):
            assert interleaved[k].keys() == solo[k].keys()
            for index, loss in solo[k].items():
                assert interleaved[k][index] == loss


class TestConfigPath:
    def test_engine_has_one_config(self, mlp_engine):
        engine, _, _ = mlp_engine
        assert engine.config == SensitivityConfig(strategy="segmented")
        seeded = SensitivityEngine(
            engine.model, engine.table,
            config=SensitivityConfig(batch_size=8), eval_batch_k=2,
        )
        assert seeded.config.batch_size == 8
        assert seeded.config.eval_batch_k == 2

    @pytest.mark.parametrize(
        "field, value",
        [("strategy", "warp"), ("health", "loud"), ("eval_batch_k", -1),
         ("max_retries", -1), ("health_rounds", -1)],
    )
    def test_invalid_knobs_rejected_by_config(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            SensitivityConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("checkpoint_path", "sweep.ckpt"), ("group_deadline", 5.0)],
    )
    def test_shards_reject_unsupported_recovery_knobs(self, field, value):
        with pytest.raises(ValueError) as info:
            SensitivityConfig(shards=2, **{field: value})
        assert "shards" in str(info.value)
        assert field in str(info.value)
        # A single-process sweep keeps both knobs.
        SensitivityConfig(shards=1, **{field: value})

    def test_resolved_fills_host_and_data_defaults(self, mlp_engine):
        _, x, _ = mlp_engine
        cfg = SensitivityConfig(batch_size=8).resolved(x)
        assert cfg.num_workers >= 1
        assert cfg.eval_batch_k >= 1
        assert cfg.lease_ttl > 0
        assert cfg.resolved(x) == cfg
