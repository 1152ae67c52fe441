"""Workloads, set-up, one allocation request, and its output checks.

Everything here goes through the program's public entry points, looked
up on their modules at call time (``models.get_pretrained``,
``core.build_algorithm``, ``store.allocate_cached`` ...), so the traced
pass in :mod:`tracing` can wrap them without this file knowing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

import repro.core as core
import repro.data as data
import repro.experiments as experiments
import repro.models as models
import repro.solvers as solvers
import repro.store as store

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    avg_bits: Tuple[float, ...]
    warm: bool


#: Sensitivity-set size (the paper's Fig. 4 protocol draws sets of several
#: sizes; this one keeps a cold request near ten seconds on one core).
SET_SIZE = 16
#: Branch-and-bound node cap per budget solve: a fixed amount of solver
#: work, so a faster solver shows as a lower ``alloc_s`` and results are
#: deterministic.  The time limit is only a safety net.
MAX_NODES = 40
TIME_LIMIT_S = 60.0
VAL_IMAGES = 512
HEALTH = "warn"
HEALTH_ROUNDS = 2
NUM_WORKERS = 1
#: Every run serves the same sensitivity-set replicates, ``0 .. pool-1``,
#: in an order drawn from its seed.  They cost different amounts of work:
#: on ``resnet_s34`` health re-measures 222 to 390 entries by replicate, and
#: on ``vit_s`` one replicate's three capped solves take up to 1.6x
#: another's.  A seed-drawn subset would move a run's ``alloc_s`` by more
#: than a change under test; a fixed pool leaves only the machine's noise.
COLD_POOL = 4
#: The warm store holds Ĝ for replicates ``0 .. WARM_POOL-1``, filled once
#: per checkout by its own code.
WARM_POOL = 5

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Empty store: miss, conv sweep, health re-measure, publish, solve.
        Workload("cold-resnet34", "resnet_s34", (4.0,), False),
        # Ĝ already stored: zero sweep evaluations, three chained solves.
        Workload("warm-vit", "vit_s", (3.0, 4.0, 5.0), True),
    )
}


# -- pinned inputs ------------------------------------------------------------


def state_hash(model) -> str:
    """SHA-256 over the model's state dict (names, dtypes, shapes, bytes)."""
    h = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        arr = np.ascontiguousarray(value)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def weights_path(model_name: str, dataset) -> Path:
    return (
        models.cache_dir()
        / "models"
        / f"{model_name}-c{dataset.config.num_classes}.npz"
    )


def load_pins(cache: Path) -> Dict[str, dict]:
    path = cache / "pins.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_pins(cache: Path, pins: Dict[str, dict]) -> None:
    path = cache / "pins.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


class PinError(RuntimeError):
    """The pinned weights were missed (retrain) or do not hash as pinned."""


# -- set-up -------------------------------------------------------------------


@dataclass
class Session:
    workload: Workload
    replicate: int
    model: object
    algo: object
    x: np.ndarray
    y: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    budgets: List[int]
    weights_file: Path
    weights_mtime: int


def replicates(workload: Workload, seed: int) -> List[int]:
    """The workload's pool of replicates, in the order drawn from ``seed``."""
    pool = WARM_POOL if workload.warm else COLD_POOL
    return random.Random(seed).sample(range(pool), pool)


def setup(workload: Workload, replicate: int) -> Session:
    """Everything before the first request can be sent.

    Refuses to let ``get_pretrained`` train: the weights file must exist
    before the call and be untouched after it (see :func:`verify_pin`).
    """
    dataset = data.make_dataset()
    path = weights_path(workload.model, dataset)
    if not path.exists():
        raise PinError(f"pinned weights missing: {path.name}")
    mtime = path.stat().st_mtime_ns
    model, _ = models.get_pretrained(workload.model, dataset)
    config = experiments.model_quant_config(workload.model)
    x, y = data.sensitivity_set(dataset, SET_SIZE, replicate=replicate)
    algo = core.build_algorithm(
        "clado",
        model,
        workload.model,
        config,
        sensitivity=core.SensitivityConfig(
            health=HEALTH, health_rounds=HEALTH_ROUNDS, num_workers=NUM_WORKERS
        ),
    )
    core.setup_activation_quant(model, algo.layers, x, bits=config.act_bits)
    _, (x_val, y_val) = dataset.splits(1, VAL_IMAGES)
    total = int(algo.layer_sizes().sum())
    budgets = [int(total * avg) for avg in workload.avg_bits]
    return Session(workload, replicate, model, algo, x, y, x_val, y_val,
                   budgets, path, mtime)


def verify_pin(session: Session, pins: Dict[str, dict]) -> str:
    """Fail unless the loaded weights are the pinned ones, loaded not trained."""
    name = session.workload.model
    if session.weights_file.stat().st_mtime_ns != session.weights_mtime:
        raise PinError(f"{name}: weights file rewritten during load (retrained)")
    digest = state_hash(session.model)
    pinned = pins.get(name, {}).get("weights_sha256")
    if digest != pinned:
        raise PinError(f"{name}: weights hash {digest[:16]} != pinned "
                       f"{str(pinned)[:16]}")
    return digest


# -- one request --------------------------------------------------------------


@dataclass
class Outcome:
    alloc_s: float
    val_top1: float
    objective: float
    greedy_objective: float
    certified: List[bool]
    choices: List[List[int]]
    results: list
    failures: List[str]


def fill_store(session: Session, root: Path) -> None:
    """Publish this checkout's Ĝ for the session's key (no budgets solved)."""
    store.allocate_cached(
        session.algo, session.x, session.y, [], store.ArtifactStore(root)
    )


def request(session: Session, store_root: Path) -> Outcome:
    """One ``allocate-cached ... --evaluate`` request, timed end to end."""
    algo = session.algo
    solver = core.SolverConfig(time_limit=TIME_LIMIT_S, max_nodes=MAX_NODES)
    t0 = perf_counter()
    results = store.allocate_cached(
        algo, session.x, session.y, session.budgets,
        store.ArtifactStore(store_root), solver=solver, warm_chain=True,
    )
    accs = [
        core.evaluate_assignment(
            session.model, algo.table, r.bits, session.x_val, session.y_val
        )[1]
        for r in results
    ]
    alloc_s = perf_counter() - t0
    problems = [_problem(session, b) for b in session.budgets]
    objectives = [p.objective(r.choice) for p, r in zip(problems, results)]
    floors = [solvers.solve(p, method="greedy").objective for p in problems]
    return Outcome(
        alloc_s=alloc_s,
        val_top1=float(np.mean(accs)),
        objective=float(sum(objectives)),
        greedy_objective=float(sum(floors)),
        certified=[bool(r.solver is not None and r.solver.optimal)
                   for r in results],
        choices=[[int(c) for c in r.choice] for r in results],
        results=results,
        failures=check(session, results, objectives, floors),
    )


def entry_bytes(session: Session, root: Path) -> int:
    """On-disk size of the store entry this session's requests address."""
    algo = session.algo
    key = store.request_key(algo, session.x, session.y, algo.sensitivity_config)
    return store.ArtifactStore(root).entry_path(key).stat().st_size


def _problem(session: Session, budget: int):
    algo = session.algo
    return solvers.MPQProblem(
        sensitivity=algo.matrix,
        layer_sizes=algo.layer_sizes(),
        bits=algo.config.bits,
        budget_bits=budget,
    )


def closed_form_evals(num_layers: int, num_choices: int) -> int:
    """Algorithm 1's forward evaluations: base + singles + cross pairs."""
    i, b = num_layers, num_choices
    return 1 + b * i + b * b * i * (i - 1) // 2


def check(session: Session, results, objectives, floors) -> List[str]:
    """Output checks; each string is one failed check."""
    algo = session.algo
    raw = algo.raw
    failures: List[str] = []
    strategy = raw.extras.get("strategy")
    if session.workload.warm:
        if strategy != "store":
            failures.append(f"warm request not served from store ({strategy})")
    else:
        if strategy != "segmented":
            failures.append(f"cold request not served by a sweep ({strategy})")
        # Plan size, not counted forward passes: both figures come from the
        # sweep plan.  The traced run checks the program's own counter.
        expected = closed_form_evals(len(algo.layers), len(algo.config.bits))
        executed = raw.extras.get("executed_evals", -1) + 1
        if raw.num_evals != expected or executed != expected:
            failures.append(f"sweep plan size {executed}/{raw.num_evals} != "
                            f"closed form {expected}")
    for budget, result, obj, floor in zip(session.budgets, results,
                                          objectives, floors):
        if result.achieved_size_bits > budget:
            failures.append(f"assignment {result.achieved_size_bits} bits "
                            f"exceeds budget {budget}")
        if obj > floor * (1 + 1e-9) + 1e-12:
            failures.append(f"objective {obj:.6g} above greedy floor "
                            f"{floor:.6g}")
    return failures


# -- reference (replicate 0, served by seed 0) --------------------------------


#: Solver budget per budget when recording the reference optimum.
REFERENCE_MAX_NODES = 20_000
REFERENCE_TIME_LIMIT_S = 300.0


def reference_entry(session: Session) -> dict:
    """Ĝ, and each budget's optimum where a long solve certifies one."""
    optima = {}
    for avg, budget in zip(session.workload.avg_bits, session.budgets):
        result = solvers.solve(_problem(session, budget), method="bb",
                               max_nodes=REFERENCE_MAX_NODES,
                               time_limit=REFERENCE_TIME_LIMIT_S)
        if result.optimal:
            optima[str(avg)] = float(result.objective)
    return {"ghat": session.algo.raw.matrix.tolist(), "optima": optima}


def check_reference(session: Session, outcome: Outcome,
                    weights_sha256: str) -> Tuple[bool, List[str]]:
    """Compare Ĝ and the objectives with the committed reference.

    Ĝ must match within a relative 1e-6.  A certified objective must equal
    the recorded optimum within 1e-6, and no objective may undercut it.
    Returns ``(checked, failures)``; the reference applies only to the
    replicate and weights it was recorded with.
    """
    if not REFERENCE_PATH.exists():
        return False, []
    ref = json.loads(REFERENCE_PATH.read_text())
    entry = ref["models"].get(session.workload.model)
    if (entry is None or session.replicate != ref["replicate"]
            or ref["set_size"] != SET_SIZE
            or entry["weights_sha256"] != weights_sha256):
        return False, []
    failures = []
    want = np.asarray(entry["ghat"], dtype=np.float64)
    got = session.algo.raw.matrix
    scale = max(1e-30, float(np.abs(want).max()))
    if got.shape != want.shape or float(np.abs(got - want).max()) > 1e-6 * scale:
        failures.append("Ghat differs from the reference beyond 1e-6")
    for avg, budget, result, ok in zip(session.workload.avg_bits,
                                       session.budgets, outcome.results,
                                       outcome.certified):
        optimum = entry["optima"].get(str(avg))
        if optimum is None:
            continue
        obj = _problem(session, budget).objective(result.choice)
        tol = 1e-6 * max(1e-30, abs(optimum))
        if obj < optimum - tol or (ok and obj > optimum + tol):
            failures.append(f"objective at {avg} bits {obj:.9g} "
                            f"{'certified' if ok else 'uncertified'}, "
                            f"reference optimum {optimum:.9g}")
    return True, failures


def fresh_dir(root: Path) -> Path:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    return root
