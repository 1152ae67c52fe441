"""Forward-only sensitivity measurement (Algorithm 1 of the paper).

Measures, on a small sensitivity set:

- *layer-specific* sensitivities (Eq. 12):
  ``Omega_ii(m) = 2 (L(w + dw_m^i) - L(w))``
- *cross-layer* sensitivities (Eq. 13):
  ``Omega_ij(m, n) = L(w + dw_m^i + dw_n^j) + L(w) - L(w + dw_m^i) - L(w + dw_n^j)``

and assembles the symmetric sensitivity matrix ``G-hat`` of Eq. 10, with
``G[Bi+m, Bi+m] = Omega_ii(m)`` and ``G[Bi+m, Bj+n] = G[Bj+n, Bi+m] =
Omega_ij(m, n)``, so that ``alpha^T G alpha`` equals the objective of Eq. 7
(diagonal terms once, cross terms twice) for one-hot ``alpha``.

Entries coupling two different bit choices *of the same layer* are
structurally zero: a one-hot ``alpha^(i)`` can never activate two of them
together, and no measurement defines them.

Cost accounting: ``|B|I`` single-layer evaluations plus
``|B|^2 I(I-1)/2`` pair evaluations (plus one baseline evaluation), i.e.
bounded by the paper's ``(1/2)|B|I(|B|I + 1)`` figure, which also counts
the structurally-zero same-layer pairs.

Execution strategies
--------------------
``"naive"`` runs every evaluation as a full forward pass — the literal
Algorithm 1.  ``"segmented"`` (the default whenever the model exposes
``Module.segments``) exploits the locality of weight perturbations:
activations before the earliest perturbed layer are bitwise unchanged, so
the clean prefix is checkpointed once per batch, each anchor perturbation
``(i, b_m)`` replays once from its segment (checkpointing the perturbed
suffix, which *is* the Eq. 12 evaluation), and each pair ``(i, j)`` replays
only from layer ``j``'s segment.  Evaluations can additionally fan out
across fork-based worker processes; the measured matrix is bitwise
identical across strategies and worker counts because losses are keyed by
their plan index before assembly.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..nn import (
    BatchedWeightOverlay,
    CrossEntropyLoss,
    fold_candidates,
    folded_cross_entropy,
)
from ..quant import QuantizedWeightTable
from ..robustness import InjectedWorkerCrash, SweepFailure
from ..robustness import faults as _faults
from ..robustness import health as _health
from ..robustness.faults import FaultPlan, resolve_fault_plan
from ..robustness.health import GMatrixHealth, HealthPolicy
from .sweep import (
    BatchChunk,
    EvalPlan,
    EvalSpec,
    GroupPlan,
    PrefixCache,
    SweepCheckpoint,
    build_batch_chunks,
    build_eval_plan,
    hot_path,
    select_cuts,
)

__all__ = [
    "SensitivityConfig",
    "SensitivityResult",
    "SensitivityEngine",
    "SweepRun",
    "block_id_from_name",
    "build_pair_list",
    "assemble_from_losses",
    "auto_eval_batch_k",
    "auto_waste_factor",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_LEASE_TTL",
]

#: Times a failed group is re-queued (to surviving workers, then serially)
#: before the sweep gives up with :class:`SweepFailure`.
DEFAULT_MAX_RETRIES = 2

#: Wall-clock seconds a sharded-sweep lease may go without a heartbeat
#: before the coordinator's reaper revokes it (see ``repro.distrib``).
#: Lives here rather than in ``repro.distrib`` so config layers can name
#: the default without importing the (subprocess-spawning) subsystem.
DEFAULT_LEASE_TTL = 30.0

#: Default number of activation checkpoints each prefix cache may hold.
DEFAULT_CACHE_BUDGET = 16

#: Soft memory budget for the auto ``eval_batch_k`` choice: the folded
#: activation batch is ``K`` replicas of one mini-batch, and intermediate
#: activations can outgrow the input by a wide margin, so the auto default
#: bounds ``K * batch_size * sample_bytes * ACT_EXPANSION`` by this budget.
_BATCH_MEMORY_BUDGET = 128 * 1024 * 1024
_ACT_EXPANSION = 8
_MAX_AUTO_BATCH_K = 32
_MAX_AUTO_BATCH_K_TINY = 128

#: Folded mini-batch volume (floats) separating the two batching regimes.
#: Below it each segment forward is a tiny GEMM whose cost is Python and
#: BLAS *dispatch*, so chunks may trade redundant flops for width
#: (:data:`_WASTE_FACTOR_DISPATCH`); above it the flops themselves are the
#: cost and chunks only coalesce cuts at zero waste
#: (:data:`_WASTE_FACTOR_COMPUTE` — pair specs sharing a partner layer
#: still stack for free, because they replay the identical suffix).
_DISPATCH_BOUND_FLOATS = 4096
_WASTE_FACTOR_DISPATCH = 2.0
_WASTE_FACTOR_COMPUTE = 1.0

#: Loss evaluations actually executed (naive: full forwards; segmented:
#: replayed evaluations — resumed-from-checkpoint losses do not count).
_FORWARD_EVALS = telemetry.counter("sensitivity.forward_evals")
#: Individual segment forwards the segmented engine paid (prefix + replays).
#: A stacked (config-batched) segment forward counts once: it is one
#: dispatch, however many candidates ride in it.
_SEGMENT_FORWARDS = telemetry.counter("sensitivity.segment_forwards")
#: Evaluations restored from a resume checkpoint instead of re-running.
_RESUMED_EVALS = telemetry.counter("sensitivity.resumed_evals")
#: Evaluations executed through stacked (config-batched) replays.
_BATCHED_EVALS = telemetry.counter("sweep.batched_evals")
#: Stacked replays executed (each carries >= 1 candidate configs).
_BATCHED_CHUNKS = telemetry.counter("sweep.batched_chunks")
#: Widest candidate stack seen in one replay.
_BATCH_WIDTH_MAX = telemetry.gauge("sweep.batch_width_max")
#: Mean realized candidate-stack width of the last sweep.
_BATCH_WIDTH_MEAN = telemetry.gauge("sweep.batch_width_mean")
#: Supervised workers that died mid-group (signal, OOM kill, injected crash).
_WORKER_CRASHES = telemetry.counter("sweep.worker_crashes")
#: Groups whose worker reported an in-process error (worker survived).
_WORKER_ERRORS = telemetry.counter("sweep.worker_errors")
#: Groups re-queued after a crash, error, or deadline kill.
_GROUP_RETRIES = telemetry.counter("sweep.group_retries")
#: Workers terminated because a group exceeded its per-group deadline.
_DEADLINE_KILLS = telemetry.counter("sweep.deadline_kills")
#: Groups the pool could not finish that degraded to serial execution.
_SERIAL_FALLBACK = telemetry.counter("sweep.serial_fallback_groups")

#: One executed plan group: ``(plan_index, loss)`` pairs, the
#: segment-forwards it spent, and its chunk statistics.
GroupResult = Tuple[List[Tuple[int, float]], int, Dict[str, int]]

_NO_SEGMENTS = (
    "segmented strategy requested but the model does not expose forward "
    "segments covering every searched layer"
)


@dataclass
class SensitivityResult:
    """Raw (pre-PSD) sensitivity measurements."""

    matrix: np.ndarray  # (|B|I, |B|I), symmetric, same-layer cross entries 0
    base_loss: float
    single_losses: np.ndarray  # (I, |B|) losses with one layer quantized
    num_evals: int
    wall_time: float
    mode: str
    bits: Tuple[int, ...] = ()
    extras: Dict[str, object] = field(default_factory=dict)
    #: Post-quarantine integrity report (``None`` when health checking is
    #: off); the structural repair ladder in ``CLADO._prepare`` consumes
    #: it.  A JSON-safe summary also lands in ``extras["health"]``.
    health: Optional[GMatrixHealth] = None

    @property
    def num_layers(self) -> int:
        return self.single_losses.shape[0]

    @property
    def num_choices(self) -> int:
        return self.single_losses.shape[1]

    def diagonal_costs(self) -> np.ndarray:
        """Per-(layer, choice) layer-specific sensitivities, shape (I, |B|)."""
        diag = np.diag(self.matrix)
        return diag.reshape(self.num_layers, self.num_choices).copy()

    def cross_block(self, i: int, j: int) -> np.ndarray:
        """The ``(|B|, |B|)`` cross-sensitivity block for layer pair (i, j)."""
        nb = self.num_choices
        return self.matrix[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].copy()


def auto_eval_batch_k(x: np.ndarray, batch_size: int) -> int:
    """Memory-aware default candidate-stack width.

    Bounds the folded-activation footprint ``K * batch_size * sample_bytes``
    (inflated by :data:`_ACT_EXPANSION` for intermediate activations) by
    :data:`_BATCH_MEMORY_BUDGET`.  Dispatch-bound workloads (see
    :func:`auto_waste_factor`) may stack up to
    :data:`_MAX_AUTO_BATCH_K_TINY` candidates — their per-segment arrays
    are so small that width is pure dispatch savings; everything else is
    clamped to :data:`_MAX_AUTO_BATCH_K`.
    """
    sample_bytes = max(1, int(x[0].nbytes)) if len(x) else 1
    rows = min(batch_size, max(1, len(x)))
    per_candidate = rows * sample_bytes
    auto = _BATCH_MEMORY_BUDGET // max(1, per_candidate * _ACT_EXPANSION)
    sample_floats = max(1, int(x[0].size)) if len(x) else 1
    cap = (
        _MAX_AUTO_BATCH_K_TINY
        if rows * sample_floats <= _DISPATCH_BOUND_FLOATS
        else _MAX_AUTO_BATCH_K
    )
    return int(min(cap, max(1, auto)))


def auto_waste_factor(x: np.ndarray, batch_size: int) -> float:
    """Chunk-coalescing waste bound matched to the workload regime.

    Tiny folded batches (``rows * floats-per-sample`` at or below
    :data:`_DISPATCH_BOUND_FLOATS`) are dispatch-bound — redundant flops
    are nearly free next to per-call overhead, so cuts coalesce
    aggressively.  Larger batches are compute-bound and only zero-waste
    merges (same-cut specs, e.g. the ``|B|`` bit choices of one partner
    layer) pay off.
    """
    sample_floats = max(1, int(x[0].size)) if len(x) else 1
    rows = min(batch_size, max(1, len(x)))
    if rows * sample_floats <= _DISPATCH_BOUND_FLOATS:
        return _WASTE_FACTOR_DISPATCH
    return _WASTE_FACTOR_COMPUTE


@dataclass(frozen=True)
class SensitivityConfig:
    """Typed knobs for the measurement phase (``prepare``).

    One config serves every algorithm; each reads the fields that apply
    to it (CLADO the sweep-execution block, HAWQ ``probes``/``seed``,
    MPQCO ``batch_size``) and ignores the rest, so callers can build one
    config per experiment and hand it to every algorithm uniformly.

    The sweep-execution fields are the only knobs of
    :class:`SensitivityEngine`.  ``strategy`` is ``"auto"`` (segmented
    when the model exposes segments), ``"naive"`` (one full forward per
    evaluation, the reference oracle) or ``"segmented"`` (raise if the
    model cannot).  ``eval_batch_k`` caps the candidates stacked per
    segment replay (``1`` = sequential, ``0`` = memory-aware auto);
    matrices agree across settings within the sweep-equivalence
    tolerance.  ``cache_budget`` / ``cache_bytes`` bound each prefix cache
    by checkpoints / bytes (evaluations past an evicted cut recompute
    from an earlier one).  ``group_deadline`` and ``max_retries`` bound
    supervised-worker recovery, and ``checkpoint_path`` makes a sweep
    resumable.  ``symmetric_diag`` is an extension beyond the paper: it
    measures the layer-specific terms with the symmetric second
    difference ``L(w+Δ) + L(w-Δ) - 2L(w)`` instead of Eq. 12's one-sided
    ``2(L(w+Δ) - L(w))``, cancelling odd-order Taylor terms for ``|B|I``
    extra evaluations.  ``health`` other than ``"off"`` diagnoses the
    assembled matrix and, on the segmented path, re-measures flagged
    entries for up to ``health_rounds`` rounds; the warn/strict gate is
    enforced by ``CLADO._prepare``.  Every field is validated here, once,
    at construction.
    """

    # Shared
    batch_size: int = 256
    # CLADO sweep execution (see SensitivityEngine)
    strategy: str = "auto"  # "auto" | "naive" | "segmented"
    num_workers: int = 1  # 0 = all cores
    cache_budget: Optional[int] = DEFAULT_CACHE_BUDGET  # None = unbounded
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 32
    symmetric_diag: bool = False
    eval_batch_k: int = 0  # candidate configs per stacked replay; 0 = auto
    # Fault tolerance (see docs/robustness.md)
    cache_bytes: Optional[int] = None  # prefix-cache byte cap; None = off
    group_deadline: Optional[float] = None  # seconds per group on a worker
    max_retries: int = DEFAULT_MAX_RETRIES
    fault_plan: Optional[FaultPlan] = None  # chaos-test injection schedule
    # Measurement integrity (see docs/robustness.md)
    health: str = "off"  # "off" | "warn" | "strict"
    health_rounds: int = 2  # quarantine re-measure rounds
    health_repair: bool = True  # structural repair ladder after quarantine
    # Sharded execution (see docs/distrib.md); 0/1 shards = single process
    shards: int = 0
    lease_ttl: Optional[float] = None  # None = DEFAULT_LEASE_TTL
    spool_dir: Optional[str] = None  # None = private temp spool
    model_spec: Optional[dict] = None  # worker-side model builder spec
    # HAWQ (Hutchinson trace estimation)
    probes: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("auto", "naive", "segmented"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.health not in ("off", "warn", "strict"):
            raise ValueError(f"unknown health mode {self.health!r}")
        for name in ("eval_batch_k", "max_retries", "health_rounds"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.shards > 1:
            for name in ("checkpoint_path", "group_deadline"):
                if getattr(self, name) is not None:
                    raise ValueError(
                        f"shards > 1 cannot be combined with {name}: a "
                        "sharded sweep recovers lost work by re-issuing "
                        "leases, and has neither a resume checkpoint nor a "
                        "per-group deadline"
                    )

    def with_overrides(self, **overrides) -> "SensitivityConfig":
        """A copy with the given fields replaced (unknown names rejected)."""
        return replace(self, **overrides)

    def resolved(self, x: np.ndarray) -> "SensitivityConfig":
        """This config with its host- and data-dependent defaults made concrete.

        ``num_workers=0`` becomes the core count (and any fan-out becomes
        1 where ``fork`` is unavailable), ``eval_batch_k=0`` the
        memory-aware width for ``x`` (:func:`auto_eval_batch_k`), an unset
        ``fault_plan`` the ``REPRO_FAULT_PLAN`` environment plan, and an
        unset ``lease_ttl`` :data:`DEFAULT_LEASE_TTL`.
        """
        workers = self.num_workers or os.cpu_count() or 1
        if workers > 1 and "fork" not in mp.get_all_start_methods():
            workers = 1  # no COW sharing available (e.g. Windows): run serial
        return self.with_overrides(
            num_workers=max(1, workers),
            eval_batch_k=self.eval_batch_k or auto_eval_batch_k(x, self.batch_size),
            fault_plan=resolve_fault_plan(self.fault_plan),
            lease_ttl=DEFAULT_LEASE_TTL if self.lease_ttl is None else self.lease_ttl,
        )


def _check_finite(loss: float) -> float:
    if not np.isfinite(loss):
        # A single non-finite measurement silently poisons the whole
        # sensitivity matrix; fail loudly at the source instead.
        raise RuntimeError(
            "non-finite loss during sensitivity measurement "
            "(model diverged or inputs are corrupt)"
        )
    return loss


def block_id_from_name(name: str) -> str:
    """Group layers into residual blocks by their dotted module path.

    ``stages.1.layers.0.conv2`` -> ``stages.1.layers.0`` (a residual block);
    ``features.3.expand.conv`` -> ``features.3``; ViT ``layer.2.mlp.output``
    -> ``layer.2`` (an encoder block).  Top-level layers (stem, head, fc)
    each form their own singleton block.
    """
    parts = name.split(".")
    for depth in range(len(parts) - 1, 0, -1):
        prefix = parts[:depth]
        if prefix[-1].isdigit():
            return ".".join(prefix)
    return name


def build_pair_list(
    layers: Sequence,
    mode: str,
    blocks: Optional[Sequence[str]] = None,
) -> List[Tuple[int, int]]:
    """The deterministic ``(i, j)`` cross-term list for a sweep ``mode``.

    Shared by :meth:`SensitivityEngine.measure` and the sharded-sweep
    protocol (``repro.distrib``): coordinator and spawned workers must
    derive the identical pair list (hence the identical
    :class:`~repro.core.sweep.EvalPlan`) from the same layer set, or the
    plan fingerprints — and the shard merge — disagree.
    """
    if mode not in ("full", "diagonal", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    num_layers = len(layers)
    if mode == "block":
        if blocks is None:
            blocks = [block_id_from_name(layer.name) for layer in layers]
        if len(blocks) != num_layers:
            raise ValueError("blocks length mismatch")
    pair_list: List[Tuple[int, int]] = []
    if mode != "diagonal":
        for i in range(num_layers):
            for j in range(i + 1, num_layers):
                if mode == "block" and blocks[i] != blocks[j]:
                    continue
                pair_list.append((i, j))
    return pair_list


def assemble_from_losses(
    plan: EvalPlan,
    losses: Dict[int, float],
    base_loss: float,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble ``(matrix, single)`` from plan-indexed losses.

    Deterministic reassembly: entries depend only on plan indices, so the
    matrix is independent of execution order, worker count, and of whether
    the losses came from one process or were merged from shard partials —
    the property the distributed sweep's bitwise-equality gate rests on.

    ``fault_plan`` applies the measurement-corruption faults exactly as
    the single-process sweep does: ``outlier_loss`` poisons the loss dict
    (in plan-index order) *before* assembly so corrupted singles cascade
    into every dependent finite difference, and ``asymmetric_pair``
    strikes one direction of an assembled entry afterwards.  Mutates
    ``losses`` in place for the outlier case (callers checkpoint the
    poisoned values, matching the in-process engine).
    """
    nb = len(plan.bits)
    nvars = plan.num_layers * nb
    if fault_plan is not None:
        for index in sorted(losses):
            delta = fault_plan.outlier_delta(index, 0)
            if delta is not None:
                losses[index] += delta * (1.0 + abs(losses[index]))

    matrix = np.zeros((nvars, nvars))
    single = np.zeros((plan.num_layers, nb))
    for g in plan.groups:
        loss = losses[g.diag.index]
        single[g.i, g.m] = loss
        if g.mirror is not None:
            omega_ii = loss + losses[g.mirror.index] - 2.0 * base_loss
        else:
            omega_ii = 2.0 * (loss - base_loss)
        matrix[g.i * nb + g.m, g.i * nb + g.m] = omega_ii
    for g in plan.groups:
        for p in g.pairs:
            omega = (
                losses[p.index] + base_loss - single[p.i, p.m] - single[p.j, p.n]
            )
            matrix[p.i * nb + p.m, p.j * nb + p.n] = omega
            matrix[p.j * nb + p.n, p.i * nb + p.m] = omega

    # Asymmetry corruption strikes one direction of an assembled entry
    # (the assembler guarantees symmetry, so only post-assembly damage
    # can break it — e.g. a bit flip in the stored matrix).
    if fault_plan is not None:
        for g in plan.groups:
            for p in g.pairs:
                delta = fault_plan.asymmetry_delta(p.index, 0)
                if delta is not None:
                    r, c = p.i * nb + p.m, p.j * nb + p.n
                    matrix[r, c] += delta * (1.0 + abs(matrix[r, c]))
    return matrix, single


# Fork fan-out state: the sweep run, set in the parent immediately before
# the workers are forked and inherited copy-on-write by each child.  The
# quantized-weight table and prefix-cache arrays are shared pages; each
# worker's weight swaps, forward caches and fault-attempt counter stay
# process-local.
_FORK_STATE: Optional["SweepRun"] = None


def _supervised_worker_loop(conn) -> None:
    """Body of one supervised fork worker.

    Receives ``(group_idx, attempt)`` tasks over its pipe, executes them
    against the inherited :data:`_FORK_STATE`, and replies ``("ok" |
    "error", group_idx, payload, pid, telemetry_delta)``.  ``None`` is the
    shutdown sentinel; EOF on the pipe means the parent is gone.  A crash
    (injected or real) simply kills the process — the supervisor observes
    the dead pipe and re-queues the in-flight group.
    """
    _faults.mark_worker()
    run = _FORK_STATE
    pid = os.getpid()
    while True:
        try:
            # lint-allow-blocking: idle workers block on the task pipe by
            # design; the parent owns liveness (EOF/terminate on shutdown).
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        group_idx, attempt = task
        run.attempt = attempt
        # The forked child inherited the parent's collector; capture only
        # what this task records and ship the delta home with the result.
        capture = telemetry.fork_capture()
        try:
            with capture:
                result = run.engine._execute_group(run, group_idx)
            reply = ("ok", group_idx, result, pid, capture.delta)
        except BaseException as exc:  # report, stay alive for the next task
            reply = (
                "error",
                group_idx,
                f"{type(exc).__name__}: {exc}",
                pid,
                capture.delta,
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _SupervisedWorker:
    """Parent-side handle for one supervised fork worker."""

    __slots__ = ("proc", "conn", "group", "started")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.group: Optional[int] = None  # in-flight plan-group index
        self.started: float = 0.0  # when the in-flight group was dispatched


class SensitivityEngine:
    """Runs Algorithm 1 against a model and a quantized-weight table.

    Every execution knob is a field of one :class:`SensitivityConfig`,
    ``self.config``: ``config`` seeds it and keyword ``overrides`` replace
    fields (``SensitivityEngine(model, table, strategy="naive")``).
    :meth:`measure` takes the same overrides per call.  The engine keeps
    no per-sweep state — each segmented sweep opens its own
    :class:`SweepRun` — so calls and runs sharing one engine never
    interfere.
    """

    def __init__(
        self,
        model,
        table: QuantizedWeightTable,
        criterion: Optional[CrossEntropyLoss] = None,
        config: Optional[SensitivityConfig] = None,
        **overrides,
    ) -> None:
        self.model = model
        self.table = table
        self.criterion = criterion or CrossEntropyLoss()
        self.config = (config or SensitivityConfig()).with_overrides(**overrides)

    # -- loss of the current weight configuration ------------------------------
    def _loss(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
        total = 0.0
        n = len(x)
        self.model.eval()
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            total += self.criterion.forward(self.model.forward(xb), yb) * len(xb)
        _FORWARD_EVALS.add()
        return _check_finite(total / n)

    # -- segmented-forward support ---------------------------------------------
    def _segment_map(self) -> Optional[Tuple[list, Tuple[int, ...]]]:
        """(segments, layer->segment) when every searched layer is covered."""
        segments = self.model.segments()
        if segments is None:
            return None
        owner: Dict[int, int] = {}
        for k, seg in enumerate(segments):
            for _, mod in seg.named_modules():
                prev = owner.setdefault(id(mod), k)
                if prev != k:
                    return None  # module reachable from two segments
        layer_segments = []
        for layer in self.table.layers:
            k = owner.get(id(layer.module))
            if k is None:
                return None  # searched layer outside the segment partition
            layer_segments.append(k)
        return list(segments), tuple(layer_segments)

    def _segmented(self, strategy: str) -> bool:
        """Whether ``strategy`` runs the segmented path on this model."""
        if strategy == "naive":
            return False
        if self._segment_map() is not None:
            return True
        if strategy == "segmented":
            raise RuntimeError(_NO_SEGMENTS)
        return False

    # -- public API -------------------------------------------------------------
    def measure(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str = "full",
        blocks: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        **overrides,
    ) -> SensitivityResult:
        """Measure the sensitivity matrix on the set ``(x, y)``.

        Parameters
        ----------
        mode:
            ``"full"`` — all pairwise cross terms (CLADO);
            ``"diagonal"`` — layer-specific terms only (CLADO* ablation);
            ``"block"`` — cross terms only within blocks (BRECQ-style
            ablation, Fig. 6).  ``blocks`` gives each layer's block id;
            derived from layer names when omitted.
        progress:
            Optional callback ``(done, total)`` for long sweeps.
        overrides:
            Per-call replacements of :class:`SensitivityConfig` fields on
            top of ``self.config`` (``batch_size=``, ``strategy=``,
            ``checkpoint_path=``, ``health=``...).  ``shards > 1`` routes
            the sweep through :func:`repro.distrib.measure_sharded`, whose
            merged matrix is bitwise identical to the single-process
            sweep; see ``docs/distrib.md``.
        """
        cfg = self.config.with_overrides(**overrides)
        pair_list = build_pair_list(self.table.layers, mode, blocks)
        segmented = self._segmented(cfg.strategy)
        if cfg.shards > 1:
            if not segmented:
                raise RuntimeError(
                    "sharded sweeps require the segmented strategy (the "
                    "shard protocol is keyed by the segmented eval plan)"
                )
            from ..distrib import measure_sharded

            return measure_sharded(
                self, x, y, cfg, mode=mode, blocks=blocks, progress=progress
            )
        if not segmented:
            return self._measure_naive(x, y, mode, pair_list, cfg, progress)
        return self._measure_segmented(x, y, mode, blocks, cfg, progress)

    # -- naive strategy: one full forward per evaluation -----------------------
    def _measure_naive(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str,
        pair_list: Sequence[Tuple[int, int]],
        cfg: SensitivityConfig,
        progress: Optional[Callable[[int, int], None]],
    ) -> SensitivityResult:
        t0 = telemetry.monotonic()
        bits = self.table.config.bits
        num_layers = len(self.table.layers)
        nb = len(bits)
        nvars = num_layers * nb
        batch_size = cfg.batch_size
        symmetric_diag = cfg.symmetric_diag

        diag_evals = num_layers * nb * (2 if symmetric_diag else 1)
        total_evals = 1 + diag_evals + len(pair_list) * nb * nb
        done = 0

        def tick() -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total_evals)

        with telemetry.span("sweep.base"):
            base_loss = self._loss(x, y, batch_size)
        tick()

        matrix = np.zeros((nvars, nvars))
        single = np.zeros((num_layers, nb))
        for i in range(num_layers):
            for m, b in enumerate(bits):
                with telemetry.span("sweep.diag", i=i, b=b):
                    with self.table.perturbed((i, b)):
                        loss = self._loss(x, y, batch_size)
                single[i, m] = loss
                if symmetric_diag:
                    # Mirror point w - Δ = 2w - Q(w): odd orders cancel.
                    with telemetry.span("sweep.mirror", i=i, b=b):
                        with self.table.mirrored(i, b):
                            minus_loss = self._loss(x, y, batch_size)
                    omega_ii = loss + minus_loss - 2.0 * base_loss
                    tick()
                else:
                    omega_ii = 2.0 * (loss - base_loss)
                matrix[i * nb + m, i * nb + m] = omega_ii
                tick()

        quads = []  # (entry key, pair loss, base, single_i, single_j)
        for i, j in pair_list:
            for m, bm in enumerate(bits):
                for n, bn in enumerate(bits):
                    with telemetry.span("sweep.pair", i=i, j=j):
                        with self.table.perturbed((i, bm), (j, bn)):
                            pair_loss = self._loss(x, y, batch_size)
                    omega = pair_loss + base_loss - single[i, m] - single[j, n]
                    matrix[i * nb + m, j * nb + n] = omega
                    matrix[j * nb + n, i * nb + m] = omega
                    quads.append(
                        (
                            _health.canonical_entry(i * nb + m, j * nb + n),
                            pair_loss, base_loss, single[i, m], single[j, n],
                        )
                    )
                    tick()

        extras: Dict[str, object] = {"strategy": "naive", "workers": 1}
        health_report: Optional[GMatrixHealth] = None
        if cfg.health != "off":
            # The naive path has no prefix cache to replay from, so it is
            # detection-only: quarantine-and-remeasure needs the segmented
            # engine (the default whenever the model exposes segments).
            policy = HealthPolicy(remeasure_rounds=cfg.health_rounds)
            with telemetry.span("sweep.health"):
                health_report = _health.diagnose_matrix(
                    matrix,
                    tuple(q[0] for q in quads),
                    policy,
                    cancellation=_health.cancellation_flags(
                        quads, policy.cancellation_eps
                    ),
                )
            health_report.quarantined = len(health_report.flagged)
            _health.QUARANTINED.add(health_report.quarantined)
            summary = health_report.to_dict(policy.max_listed)
            extras["health"] = {
                "pre": summary,
                "post": summary,
                "quarantined": health_report.quarantined,
                "remeasured": 0,
                "confirmed": 0,
                "persistent": 0,
                "rounds": 0,
            }

        return SensitivityResult(
            matrix=matrix,
            base_loss=base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=telemetry.monotonic() - t0,
            mode=mode,
            bits=tuple(bits),
            extras=extras,
            health=health_report,
        )

    # -- segmented strategy: prefix caching + optional process fan-out ----------
    def _measure_segmented(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mode: str,
        blocks: Optional[Sequence[str]],
        cfg: SensitivityConfig,
        progress: Optional[Callable[[int, int], None]],
    ) -> SensitivityResult:
        t0 = telemetry.monotonic()
        run = SweepRun(self, x, y, mode, blocks, config=cfg)
        cfg = run.config
        plan = run.plan
        total_evals = 1 + plan.num_evals
        done = 0

        def tick(count: int = 1) -> None:
            nonlocal done
            for _ in range(count):
                done += 1
                if progress is not None:
                    progress(done, total_evals)

        tick()  # the base loss, measured by the run's clean prefix pass

        checkpoint: Optional[SweepCheckpoint] = None
        losses: Dict[int, float] = {}
        if cfg.checkpoint_path:
            checkpoint = SweepCheckpoint(
                cfg.checkpoint_path, run.fingerprint(),
                every=cfg.checkpoint_every, fault_plan=cfg.fault_plan,
            )
            losses = checkpoint.load()
        # A group reruns in full unless every one of its losses was restored.
        pending = [
            gi
            for gi, g in enumerate(plan.groups)
            if any(s.index not in losses for s in g.specs())
        ]
        resumed = plan.num_evals - sum(
            sum(1 for _ in plan.groups[gi].specs()) for gi in pending
        )
        if resumed:
            _RESUMED_EVALS.add(resumed)
        tick(resumed)

        segment_work = 0
        chunk_stats = {"evals": 0, "chunks": 0, "width_max": 0, "extra_flops": 0}
        recovery = {
            "worker_crashes": 0,
            "worker_errors": 0,
            "group_retries": 0,
            "deadline_kills": 0,
            "serial_fallback_groups": 0,
        }

        def deliver(
            results: List[Tuple[int, float]], work: int, stats: Dict[str, int]
        ) -> None:
            """Fold one finished group in, checkpointing its losses."""
            nonlocal segment_work
            segment_work += work
            for key in ("evals", "chunks", "extra_flops"):
                chunk_stats[key] += stats[key]
            chunk_stats["width_max"] = max(
                chunk_stats["width_max"], stats["width_max"]
            )
            for index, loss in results:
                losses[index] = loss
                if checkpoint is not None:
                    checkpoint.record(index, loss)
            tick(len(results))

        workers = min(cfg.num_workers, max(1, len(pending)))
        t_eval_start = telemetry.monotonic()
        try:
            with telemetry.span("sweep.evals", workers=workers):
                if workers > 1:
                    self._run_groups_supervised(
                        run, pending, workers, deliver, recovery
                    )
                else:
                    for gi in pending:
                        deliver(*self._execute_group_resilient(run, gi, recovery))
        finally:
            if checkpoint is not None:
                checkpoint.flush()
        t_evals = telemetry.monotonic() - t_eval_start

        # Injected measurement corruption (round 0 = the sweep itself) and
        # deterministic reassembly, shared with the distributed merge path.
        matrix, single = assemble_from_losses(
            plan, losses, run.base_loss, cfg.fault_plan
        )

        health_report: Optional[GMatrixHealth] = None
        health_extras: Optional[Dict[str, object]] = None
        if cfg.health != "off":
            with telemetry.span("sweep.health"):
                health_report, health_extras = self._health_pass(
                    run, matrix, single, losses
                )
            if checkpoint is not None:
                # Accepted re-measurements supersede the checkpointed sweep
                # values; persist them so a resume sees the healed losses.
                for index, loss in losses.items():
                    checkpoint.record(index, loss)
                checkpoint.flush()

        wall = telemetry.monotonic() - t0
        nseg = len(run.segments)
        num_batches = len(run.batches)
        prefix_work = nseg * num_batches
        naive_work = total_evals * nseg * num_batches
        executed = plan.num_evals - resumed
        batch_width_mean = (
            chunk_stats["evals"] / chunk_stats["chunks"]
            if chunk_stats["chunks"]
            else 0.0
        )
        _BATCH_WIDTH_MEAN.set(batch_width_mean)
        extras: Dict[str, object] = {
            "strategy": "segmented",
            "workers": workers,
            "num_segments": nseg,
            "plan_groups": len(plan.groups),
            "plan_evals": plan.num_evals,
            "resumed_evals": resumed,
            "executed_evals": executed,
            "prefix_cuts_cached": run.clean.num_checkpoints,
            "cache_budget": -1 if cfg.cache_budget is None else cfg.cache_budget,
            "cache_bytes": -1 if cfg.cache_bytes is None else cfg.cache_bytes,
            "clean_cache_evictions": run.clean.evictions,
            "clean_cache_stored_bytes": run.clean.stored_bytes,
            "eval_batch_k": cfg.eval_batch_k,
            "max_retries": cfg.max_retries,
            "group_deadline": (
                -1.0 if cfg.group_deadline is None else cfg.group_deadline
            ),
            "injected_fault_plan": (
                cfg.fault_plan.describe() if cfg.fault_plan is not None else []
            ),
            **recovery,
            "batched_evals": chunk_stats["evals"],
            "batched_chunks": chunk_stats["chunks"],
            "batch_width_max": chunk_stats["width_max"],
            "batch_width_mean": batch_width_mean,
            "segment_forwards": prefix_work + segment_work,
            "segment_forwards_naive": naive_work,
            "segment_flop_units": prefix_work
            + segment_work
            + chunk_stats["extra_flops"],
            "segment_work_saved": 1.0
            - (prefix_work + segment_work) / max(1, naive_work),
            "time_plan": run.time_plan,
            "time_prefix": run.time_prefix,
            "time_evals": t_evals,
            "time_total": wall,
            "evals_per_sec": executed / t_evals if t_evals > 0 else float("inf"),
        }
        if health_extras is not None:
            extras["health"] = health_extras
        return SensitivityResult(
            matrix=matrix,
            base_loss=run.base_loss,
            single_losses=single,
            num_evals=total_evals,
            wall_time=wall,
            mode=mode,
            bits=tuple(plan.bits),
            extras=extras,
            health=health_report,
        )

    # -- measurement integrity: quarantine-and-remeasure ------------------------

    def _health_pass(
        self,
        run: "SweepRun",
        matrix: np.ndarray,
        single: np.ndarray,
        losses: Dict[int, float],
    ) -> Tuple[GMatrixHealth, Dict[str, object]]:
        """Diagnose the assembled Ĝ and quarantine-and-remeasure suspects.

        Flagged entries are re-evaluated in place — suffix replays off the
        run's *clean* prefix cache, not full sweeps — for up to
        ``health_rounds`` rounds.  A re-measurement that agrees
        with the entry's current value (bitwise for the deterministic
        sequential path) confirms it; a disagreement replaces the value
        and leaves the entry active so the replacement itself must repeat
        before being trusted.  Diagonals are processed before pairs within
        each round because a corrected single cascades into every
        dependent pair difference.  Mutates ``matrix`` / ``single`` /
        ``losses`` and returns the post-quarantine report plus the
        JSON-safe ``extras["health"]`` summary.
        """
        plan = run.plan
        base_loss = run.base_loss
        policy = HealthPolicy(remeasure_rounds=run.config.health_rounds)
        nb = len(plan.bits)
        diag_groups: Dict[int, GroupPlan] = {
            g.i * nb + g.m: g for g in plan.groups
        }
        pair_specs: Dict[Tuple[int, int], EvalSpec] = {}
        for g in plan.groups:
            for p in g.pairs:
                key = _health.canonical_entry(p.i * nb + p.m, p.j * nb + p.n)
                pair_specs[key] = p

        def quads() -> list:
            return [
                (key, losses[p.index], base_loss, single[p.i, p.m], single[p.j, p.n])
                for key, p in pair_specs.items()
            ]

        report = _health.diagnose_matrix(
            matrix,
            tuple(pair_specs),
            policy,
            cancellation=_health.cancellation_flags(
                quads(), policy.cancellation_eps
            ),
        )
        report.quarantined = len(report.flagged)
        _health.QUARANTINED.add(report.quarantined)
        pre_summary = report.to_dict(policy.max_listed)

        confirmed: set = set()
        persistent: Dict[Tuple[int, int], float] = {}
        samples: Dict[Tuple[int, int], List[float]] = {}
        remeasured = 0
        active = set(report.flagged)

        def entry_specs(key: Tuple[int, int]) -> List[EvalSpec]:
            r, c = key
            if r == c:
                g = diag_groups.get(r)
                if g is None:
                    return []
                return [g.diag] + ([g.mirror] if g.mirror is not None else [])
            p = pair_specs.get(key)
            return [] if p is None else [p]

        def write_pair(p: EvalSpec) -> None:
            omega = losses[p.index] + base_loss - single[p.i, p.m] - single[p.j, p.n]
            matrix[p.i * nb + p.m, p.j * nb + p.n] = omega
            matrix[p.j * nb + p.n, p.i * nb + p.m] = omega

        def recompute(key: Tuple[int, int]) -> None:
            """Rewrite the entry (and its dependents) from current losses.

            Always runs after a re-measurement — even a confirming one —
            because asymmetry damage lives in the assembled matrix, not in
            the loss dict, and a symmetric rewrite is what heals it.
            """
            r, c = key
            if r != c:
                write_pair(pair_specs[key])
                return
            g = diag_groups[r]
            loss = losses[g.diag.index]
            single[g.i, g.m] = loss
            if g.mirror is not None:
                omega = loss + losses[g.mirror.index] - 2.0 * base_loss
            else:
                omega = 2.0 * (loss - base_loss)
            matrix[r, r] = omega
            # A corrected single silently heals the pair entries it
            # poisoned — they were assembled from the same corrupted
            # single, not independently measured wrong.
            for p in pair_specs.values():
                if (p.i, p.m) == (g.i, g.m) or (p.j, p.n) == (g.i, g.m):
                    write_pair(p)

        for round_ in range(1, policy.remeasure_rounds + 1):
            if not active:
                break
            with telemetry.span("sweep.remeasure", round=round_):
                # Diagonal suspects first (sort key: pairs compare False <
                # True), so corrected singles propagate before the pair
                # agreement checks of the same round.
                for key in sorted(active, key=lambda rc: (rc[0] != rc[1], rc)):
                    specs = entry_specs(key)
                    if not specs:
                        # Nothing measurable behind this entry (cannot
                        # happen for plan-built matrices; defensive).
                        active.discard(key)
                        persistent[key] = 0.0
                        continue
                    samples.setdefault(key, [losses[specs[0].index]])
                    agree = True
                    for spec in specs:
                        new = self._remeasure_loss(run, spec, round_)
                        remeasured += 1
                        if not policy.agrees(new, losses[spec.index]):
                            agree = False
                            losses[spec.index] = new
                    samples[key].append(losses[specs[0].index])
                    recompute(key)
                    if agree:
                        confirmed.add(key)
                        active.discard(key)

        for key in sorted(active):
            persistent[key] = float(np.var(np.asarray(samples.get(key, [0.0]))))
        _health.REMEASURED.add(remeasured)
        _health.CONFIRMED.add(len(confirmed))
        _health.PERSISTENT.add(len(persistent))

        # Re-diagnose the (possibly healed) matrix against the *frozen*
        # initial robust scale: the quarantine must not be able to shift
        # the reference distribution under its own feet.
        final = _health.diagnose_matrix(
            matrix,
            tuple(pair_specs),
            policy,
            cancellation=_health.cancellation_flags(
                quads(), policy.cancellation_eps
            ),
            scale=report.scale,
            confirmed=frozenset(confirmed),
        )
        final.persistent = persistent
        final.quarantined = report.quarantined
        final.remeasured = remeasured
        extras: Dict[str, object] = {
            "pre": pre_summary,
            "post": final.to_dict(policy.max_listed),
            "quarantined": report.quarantined,
            "remeasured": remeasured,
            "confirmed": len(confirmed),
            "persistent": len(persistent),
            "rounds": policy.remeasure_rounds,
        }
        return final, extras

    def _remeasure_loss(self, run: "SweepRun", spec: EvalSpec, round_: int) -> float:
        """One quarantine re-evaluation of ``spec`` — a suffix replay.

        Replays from the clean prefix cache at the earliest perturbed
        segment, so the sequential path reproduces the sweep's loss
        bitwise.  Scheduled ``outlier_loss`` faults re-corrupt the result
        while their ``times`` budget lasts (``round_`` >= 1 here), which is
        what makes persistent disagreers deterministic in chaos tests.
        """
        plan = run.plan
        bits = plan.bits
        if spec.kind == "pair":
            start = min(plan.layer_segments[spec.i], plan.layer_segments[spec.j])
            ctx = self.table.perturbed(
                (spec.i, bits[spec.m]), (spec.j, bits[spec.n])
            )
        elif spec.kind == "mirror":
            start = spec.start_segment
            ctx = self.table.mirrored(spec.i, bits[spec.m])
        else:
            start = spec.start_segment
            ctx = self.table.perturbed((spec.i, bits[spec.m]))
        with ctx:
            loss, work = self._replay_loss(run, run.clean, start)
        _SEGMENT_FORWARDS.add(work)
        fault_plan = run.config.fault_plan
        if fault_plan is not None:
            delta = fault_plan.outlier_delta(spec.index, round_)
            if delta is not None:
                loss += delta * (1.0 + abs(loss))
        return loss

    def _data_fingerprint(self, x: np.ndarray, y: np.ndarray, batch_size: int) -> str:
        """Ties a resume checkpoint to the exact data, weights, and batching."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(x).tobytes())
        h.update(np.ascontiguousarray(y).tobytes())
        for original in self.table.original:
            h.update(np.ascontiguousarray(original).tobytes())
        h.update(str(batch_size).encode())
        return h.hexdigest()

    # -- group execution: fault injection, retries, worker supervision ---------
    def _execute_group(self, run: "SweepRun", group_idx: int) -> GroupResult:
        """Run one plan group, firing any sweep fault scheduled for it first.

        This is the fault-injection point for sweep faults: it runs
        identically in supervised workers, in serial execution and in
        shard workers, and it sees the (group, attempt) pair the schedule
        is keyed by.
        """
        fault = run.config.fault_plan
        if fault is not None:
            if fault.crash_now(group_idx, run.attempt):
                if _faults.in_worker():
                    # Die the way a real worker does (OOM kill, signal):
                    # no cleanup, no reply — the supervisor sees EOF.
                    os._exit(_faults.FAULT_EXIT_CODE)
                raise InjectedWorkerCrash(
                    f"injected worker crash at group {group_idx} "
                    f"(attempt {run.attempt})"
                )
            if fault.nonfinite_now(group_idx, run.attempt):
                run.poison_next_loss = True
        return self._run_group(run, group_idx)

    def _execute_group_resilient(
        self,
        run: "SweepRun",
        group_idx: int,
        recovery: Dict[str, int],
        start_attempt: int = 0,
    ) -> GroupResult:
        """Execute one group in-process with bounded retries.

        The retry loop is safe because a failed attempt leaves no partial
        state: ``table.perturbed`` restores weights on unwind and the
        group's suffix cache is rebuilt per attempt, so a retry recomputes
        the identical losses a clean first attempt would.  ``start_attempt``
        keeps the fault-injection attempt counter monotonic for groups that
        already burned attempts on the worker pool.
        """
        max_retries = run.config.max_retries
        last_exc: Optional[BaseException] = None
        for k in range(max_retries + 1):
            run.attempt = start_attempt + k
            try:
                return self._execute_group(run, group_idx)
            except Exception as exc:
                last_exc = exc
                if k < max_retries:
                    _GROUP_RETRIES.add()
                    recovery["group_retries"] += 1
        attempts = start_attempt + max_retries + 1
        raise SweepFailure(
            f"sweep group {group_idx} failed after {attempts} attempts "
            f"(last error: {last_exc})",
            group=group_idx,
            attempts=attempts,
        ) from last_exc

    def _run_groups_supervised(
        self,
        run: "SweepRun",
        pending: Sequence[int],
        workers: int,
        deliver: Callable[..., None],
        recovery: Dict[str, int],
    ) -> None:
        """Fan groups out across supervised fork workers.

        Unlike a bare ``mp.Pool`` (which deadlocks when a worker dies with a
        task in flight), each worker is a dedicated process on a dedicated
        pipe.  The supervisor multiplexes on the pipes: EOF means the worker
        died mid-group (exit-code watch), a per-group deadline kills hung
        workers, and in both cases the in-flight group re-queues onto the
        survivors with bounded retries.  Groups the pool cannot finish —
        retries exhausted or every worker dead — degrade to serial
        execution in the parent, which is also where :class:`SweepFailure`
        is ultimately raised.  Each finished group goes to ``deliver`` as
        it arrives, so nothing measured is ever re-measured.
        """
        global _FORK_STATE
        ctx = mp.get_context("fork")
        max_retries = run.config.max_retries
        group_deadline = run.config.group_deadline
        _FORK_STATE = run
        pool: List[_SupervisedWorker] = []
        queue = deque(pending)
        attempts: Dict[int, int] = {gi: 0 for gi in pending}
        overflow: List[int] = []  # retries exhausted on the pool -> serial

        def requeue(gi: int) -> None:
            attempts[gi] += 1
            if attempts[gi] <= max_retries:
                _GROUP_RETRIES.add()
                recovery["group_retries"] += 1
                queue.append(gi)
            else:
                overflow.append(gi)

        def retire(worker: _SupervisedWorker) -> None:
            """Take a dead/killed worker out of service, re-queueing its group."""
            if worker in busy:
                busy.remove(worker)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.proc.join(timeout=5.0)
            if worker.group is not None:
                requeue(worker.group)
                worker.group = None

        try:
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_supervised_worker_loop, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                pool.append(_SupervisedWorker(proc, parent_conn))
            idle: List[_SupervisedWorker] = list(pool)
            busy: List[_SupervisedWorker] = []

            while queue or busy:
                # Dispatch as long as there is work and a live idle worker.
                while queue and idle:
                    worker = idle.pop()
                    gi = queue.popleft()
                    try:
                        worker.conn.send((gi, attempts[gi]))
                    except (BrokenPipeError, OSError):
                        queue.appendleft(gi)
                        _WORKER_CRASHES.add()
                        recovery["worker_crashes"] += 1
                        retire(worker)
                        continue
                    worker.group = gi
                    worker.started = telemetry.monotonic()
                    busy.append(worker)
                if not busy:
                    break  # every worker is gone; leftovers run serially
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=0.25
                )
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    worker = by_conn[conn]
                    try:
                        # lint-allow-blocking: recv only on pipes wait()
                        # already reported ready — it cannot block.
                        kind, gi, payload, pid, delta = conn.recv()
                    except (EOFError, OSError):
                        # Exit-code watch: the pipe died with a group in
                        # flight — worker crashed (signal, OOM, os._exit).
                        _WORKER_CRASHES.add()
                        recovery["worker_crashes"] += 1
                        retire(worker)
                        continue
                    telemetry.merge_delta(delta, worker=pid)
                    busy.remove(worker)
                    worker.group = None
                    idle.append(worker)
                    if kind == "ok":
                        deliver(*payload)
                    else:
                        _WORKER_ERRORS.add()
                        recovery["worker_errors"] += 1
                        requeue(gi)
                if group_deadline is not None:
                    now = telemetry.monotonic()
                    for worker in [
                        w for w in busy if now - w.started > group_deadline
                    ]:
                        _DEADLINE_KILLS.add()
                        recovery["deadline_kills"] += 1
                        _WORKER_CRASHES.add()
                        recovery["worker_crashes"] += 1
                        retire(worker)
        finally:
            _FORK_STATE = None
            for worker in pool:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                try:
                    worker.conn.close()
                except OSError:
                    pass
                if worker.proc.is_alive():
                    worker.proc.terminate()
                worker.proc.join(timeout=5.0)

        # Serial degradation: whatever the pool could not finish runs in the
        # parent, with its own bounded retries; if that fails too the sweep
        # raises SweepFailure.
        leftovers = list(queue) + overflow
        if leftovers:
            _SERIAL_FALLBACK.add(len(leftovers))
            recovery["serial_fallback_groups"] += len(leftovers)
            for gi in leftovers:
                deliver(
                    *self._execute_group_resilient(
                        run, gi, recovery, start_attempt=attempts.get(gi, 0)
                    )
                )

    # -- the sweep's inner loop --------------------------------------------------
    @hot_path
    def _run_group(self, run: "SweepRun", group_idx: int) -> GroupResult:
        """All evaluations of one anchor group ``(i, b_m)``.

        The diagonal replay doubles as the construction pass of the
        group's perturbed-suffix cache: activations entering each partner
        segment (with ``(i, b_m)`` applied) are checkpointed, so every
        pair evaluation replays only from its partner's segment.  The pair
        evaluations run as waste-bounded chunks (:class:`BatchChunk`) of
        at most ``eval_batch_k`` candidates: a wider chunk replays its suffix
        **once** with every member stacked on the candidate axis
        (:meth:`_run_chunk`); a width-1 chunk is the plain perturbed
        replay, so ``eval_batch_k=1`` is the sequential sweep.  Losses land
        under their plan indices, so reassembly, checkpointing and resume
        are oblivious to the chunking.  Returns ``((plan_index, loss),
        ...)``, the segment-forwards spent, and the chunk statistics
        (recorded only when config batching is on, ``eval_batch_k > 1``).
        """
        g = run.plan.groups[group_idx]
        bits = run.plan.bits
        segments = run.segments
        nseg = len(segments)
        clean = run.clean
        batched = run.config.eval_batch_k > 1
        out: List[Tuple[int, float]] = []
        work = 0
        clean_work0 = clean.recomputed_segments
        stats = {"evals": 0, "chunks": 0, "width_max": 0, "extra_flops": 0}

        chunks = build_batch_chunks(
            g.pairs, nseg, run.config.eval_batch_k, waste_factor=run.waste_factor
        )
        group_freq = Counter(c.cut for c in chunks if c.cut > g.segment)
        group_cache = PrefixCache(
            segments,
            select_cuts(group_freq, run.config.cache_budget) | {g.segment},
            max_bytes=run.config.cache_bytes,
        )

        with telemetry.span("sweep.group", i=g.i), self.table.perturbed(
            (g.i, bits[g.m])
        ):
            # Diagonal evaluation + perturbed-suffix checkpointing.
            with telemetry.span("sweep.diag", i=g.i):
                total = 0.0
                for b, (xb, yb) in enumerate(run.batches):
                    a = clean.activation(b, g.segment)
                    for k in range(g.segment, nseg):
                        group_cache.put(b, k, a)
                        a = segments[k].forward(a)
                    total += self.criterion.forward(a, yb) * len(xb)
                work += (nseg - g.segment) * len(run.batches)
                out.append((g.diag.index, run.finite(total / run.n)))
            _FORWARD_EVALS.add()

            for chunk in chunks:
                # A chunk cut before the anchor's segment (layer enumeration
                # not in forward order) replays from the clean cache with
                # the anchor re-applied on the way.
                source = group_cache if chunk.cut >= g.segment else clean
                if chunk.width == 1:
                    p = chunk.specs[0]
                    with telemetry.span("sweep.pair", i=p.i, j=p.j):
                        with self.table.perturbed((p.j, bits[p.n])):
                            loss, replayed = self._replay_loss(
                                run, source, p.start_segment
                            )
                    results = [(p.index, loss)]
                else:
                    with telemetry.span("sweep.chunk", i=g.i, width=chunk.width):
                        results, replayed = self._run_chunk(run, chunk, source)
                work += replayed
                out.extend(results)
                if batched:
                    _BATCHED_EVALS.add(chunk.width)
                    _BATCHED_CHUNKS.add()
                    _BATCH_WIDTH_MAX.record_max(chunk.width)
                    stats["evals"] += chunk.width
                    stats["chunks"] += 1
                    stats["width_max"] = max(stats["width_max"], chunk.width)
                    stats["extra_flops"] += (
                        (chunk.width - 1) * (nseg - chunk.cut) * len(run.batches)
                    )

        if g.mirror is not None:
            with telemetry.span("sweep.mirror", i=g.i), self.table.mirrored(
                g.i, bits[g.m]
            ):
                loss, replayed = self._replay_loss(run, clean, g.segment)
            work += replayed
            out.append((g.mirror.index, loss))

        work += clean.recomputed_segments - clean_work0
        work += group_cache.recomputed_segments
        _SEGMENT_FORWARDS.add(work)
        return out, work, stats

    @hot_path
    def _replay_loss(
        self, run: "SweepRun", source: PrefixCache, start: int
    ) -> Tuple[float, int]:
        """Loss of the current weights, replayed from ``source`` at ``start``.

        The plain (unstacked) perturbed replay: every mini-batch runs
        segments ``start..`` from the cached activation entering
        ``start``.  Returns the loss and the segment-forwards spent.
        """
        segments = run.segments
        total = 0.0
        for b, (xb, yb) in enumerate(run.batches):
            a = source.activation(b, start)
            for k in range(start, len(segments)):
                a = segments[k].forward(a)
            total += self.criterion.forward(a, yb) * len(xb)
        loss = run.finite(total / run.n)
        _FORWARD_EVALS.add()
        return loss, (len(segments) - start) * len(run.batches)

    @hot_path
    def _run_chunk(
        self, run: "SweepRun", chunk: BatchChunk, source: PrefixCache
    ) -> Tuple[List[Tuple[int, float]], int]:
        """One stacked suffix replay evaluating every spec in ``chunk``.

        Runs inside the group's anchor context (``(i, b_m)`` applied
        globally), replaying from ``source`` at the chunk cut.  Candidate
        ``k`` overlays its partner layer ``j_k`` with ``Q(w, b_{n_k})``;
        every other overlaid layer shows candidate ``k`` its current
        in-context weight, so each candidate row computes exactly the
        sequential pair evaluation it replaces.
        """
        segments = run.segments
        nseg = len(segments)
        bits = run.plan.bits
        width = chunk.width
        cut = chunk.cut
        # Fetch activation sources before overlays go on: a cache miss
        # recomputes with plain forwards, which must not see folded batches.
        acts = [source.activation(b, cut) for b in range(len(run.batches))]
        # Sparse overlays: at each partner layer, every candidate but the
        # spec's own row sees the current in-context weight, so the layer
        # runs one tall base GEMM plus a per-row slice fixup instead of
        # `width` sliced GEMMs.
        rows_by_layer: Dict[int, Dict[int, np.ndarray]] = {}
        for k, spec in enumerate(chunk.specs):
            rows_by_layer.setdefault(spec.j, {})[k] = self.table.quantized(
                spec.j, bits[spec.n]
            )
        overrides = {
            j: BatchedWeightOverlay(width, self.table.layers[j].weight.data, rows)
            for j, rows in rows_by_layer.items()
        }
        totals = [0.0] * width
        with self.table.batched(overrides):
            for b, (xb, yb) in enumerate(run.batches):
                a = fold_candidates(acts[b], width)
                for s in range(cut, nseg):
                    a = segments[s].forward(a)
                # Row-wise folded loss: entry k bitwise equals a solo
                # criterion.forward on candidate k's logit slice.
                losses = folded_cross_entropy(a, yb, width)
                for k in range(width):
                    totals[k] += losses[k] * len(xb)
        _FORWARD_EVALS.add(width)
        results = [
            (spec.index, run.finite(totals[k] / run.n))
            for k, spec in enumerate(chunk.specs)
        ]
        # One stacked dispatch per (segment, batch), whatever the width.
        return results, (nseg - cut) * len(run.batches)


class SweepRun:
    """One segmented sweep's standing state, built in one place.

    Holds the eval plan, the mini-batches, the clean prefix cache (with
    its cut selection) and the base loss its prefix pass yields, the
    resolved config (cache budget and bytes, stack width, fault plan) plus
    the derived chunk waste factor, and the fault-attempt / armed-NaN
    state.  Every segmented execution path opens one:
    ``SensitivityEngine.measure`` (its supervised fork workers inherit the
    run copy-on-write) and both sides of :mod:`repro.distrib` — the
    coordinator to fingerprint the job, assemble the merged losses and run
    the health pass, each spawned worker to execute its claimed shards'
    plan groups.

    Plan construction, the prefix pass and group execution are
    deterministic functions of (weights, data, config), so every run over
    the same job measures bitwise-identical losses — which is what makes
    shard merges idempotent.  All mutable sweep state lives here, not on
    the engine, so several runs may share one engine and interleave.
    """

    def __init__(
        self,
        engine: SensitivityEngine,
        x: np.ndarray,
        y: np.ndarray,
        mode: str = "full",
        blocks: Optional[Sequence[str]] = None,
        config: Optional[SensitivityConfig] = None,
        **overrides,
    ) -> None:
        t0 = telemetry.monotonic()
        cfg = (config or engine.config).with_overrides(**overrides).resolved(x)
        mapping = engine._segment_map()
        if mapping is None:
            raise RuntimeError(_NO_SEGMENTS)
        self.engine = engine
        self.config = cfg
        self.x = x
        self.y = y
        self.segments, layer_segments = mapping
        self.waste_factor = auto_waste_factor(x, cfg.batch_size)
        self.attempt = 0  # retry ordinal the fault schedule is keyed by
        self.poison_next_loss = False  # armed by a ``nonfinite_loss`` fault
        table = engine.table
        with telemetry.span("sweep.plan"):
            self.plan = build_eval_plan(
                len(table.layers), table.config.bits,
                build_pair_list(table.layers, mode, blocks), layer_segments,
                len(self.segments), cfg.symmetric_diag, mode,
            )
        self.time_plan = telemetry.monotonic() - t0

        # Clean prefix pass: one full forward per batch, checkpointing the
        # cuts replays start from; the final outputs give the base loss.
        engine.model.eval()
        self.n = len(x)
        bs = cfg.batch_size
        self.batches = [(x[s : s + bs], y[s : s + bs]) for s in range(0, self.n, bs)]
        clean_freq: Counter = Counter()
        for g in self.plan.groups:
            clean_freq[g.segment] += 2 if g.mirror is not None else 1
            for p in g.pairs:
                if p.start_segment < g.segment:
                    clean_freq[p.start_segment] += 1
        self.clean = PrefixCache(
            self.segments,
            select_cuts(clean_freq, cfg.cache_budget) | {0},
            max_bytes=cfg.cache_bytes,
        )
        with telemetry.span("sweep.prefix"):
            base_total = 0.0
            for b, (xb, yb) in enumerate(self.batches):
                a = xb
                for k, seg in enumerate(self.segments):
                    self.clean.put(b, k, a)
                    a = seg.forward(a)
                base_total += engine.criterion.forward(a, yb) * len(xb)
            self.base_loss = self.finite(base_total / self.n)
        _FORWARD_EVALS.add()
        _SEGMENT_FORWARDS.add(len(self.segments) * len(self.batches))
        self.time_prefix = telemetry.monotonic() - t0 - self.time_plan

    def finite(self, loss: float) -> float:
        """``loss`` checked finite; NaN instead while a NaN fault is armed."""
        if self.poison_next_loss:
            # Armed by a FaultPlan ``nonfinite_loss`` fault: the very next
            # measured loss comes out NaN, exercising the identical failure
            # path a diverged model would.
            self.poison_next_loss = False
            loss = float("nan")
        return _check_finite(loss)

    def fingerprint(self) -> str:
        """Plan + data + weights + batching hash every shard part must match."""
        return self.plan.fingerprint(
            self.engine._data_fingerprint(self.x, self.y, self.config.batch_size)
        )

    def group_indices(self, group_idx: int) -> List[int]:
        """Plan-spec indices measured by plan group ``group_idx``."""
        return [s.index for s in self.plan.groups[group_idx].specs()]

    def run_group(self, group_idx: int) -> List[Tuple[int, float]]:
        """Execute one plan group, returning ``(plan_index, loss)`` pairs."""
        return self.engine._execute_group(self, group_idx)[0]

    def run_groups(
        self,
        group_indices: Sequence[int],
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> Dict[int, float]:
        """Execute several plan groups, invoking ``heartbeat`` after each."""
        losses: Dict[int, float] = {}
        for gi in group_indices:
            for index, loss in self.run_group(gi):
                losses[index] = loss
            if heartbeat is not None:
                heartbeat()
        return losses

    def assemble(
        self, losses: Dict[int, float], fault_plan: Optional[FaultPlan] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble ``(matrix, single)`` from complete plan-indexed losses."""
        missing = [
            s.index for s in self.plan.specs() if s.index not in losses
        ]
        if missing:
            raise ValueError(
                f"cannot assemble: {len(missing)} plan indices unmeasured "
                f"(first missing: {missing[:5]})"
            )
        return assemble_from_losses(self.plan, losses, self.base_loss, fault_plan)
