"""The traced pass: wrappers around each module's public entry points.

Wrappers are installed only for the traced pass, never for a timed run.
Each wrapped call records its count, its total time, and its self time
(its duration minus the time of wrapped calls made inside it).  The
program's own counters and spans are read back from the run manifest it
writes; this file adds none to the program.

FLOP and byte counts are computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.core as core
import repro.core.clado as clado
import repro.core.evaluate as core_evaluate
import repro.core.sensitivity as sensitivity
import repro.data as data
import repro.models as models
import repro.nn.attention as attention
import repro.nn.functional as F
import repro.nn.layers as layers
import repro.nn.loss as loss
import repro.quant as quant
import repro.solvers.branch_bound as branch_bound
import repro.store as store


def _conv_out(x_shape, kh, kw, stride, pad):
    _, _, h, w = x_shape
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def _conv_flop(rows, x_shape, w_shape, stride, pad):
    c_out, c_in_g, kh, kw = w_shape
    oh, ow = _conv_out(x_shape, kh, kw, stride, pad)
    return 2.0 * rows * c_out * oh * ow * c_in_g * kh * kw


def _work_conv2d(x, weight, bias, stride, pad, groups):
    return _conv_flop(x.shape[0], x.shape, weight.shape, stride, pad), 0.0


def _work_conv2d_batched(x, weights, bias, stride, pad, groups):
    return _conv_flop(x.shape[0], x.shape, weights.shape[1:], stride, pad), 0.0


def _work_conv2d_overlay(x, overlay, bias, stride, pad, groups):
    # Inclusive: the base convolution plus one slice per overlaid row,
    # all executed by nested conv2d calls.
    rows = x.shape[0] + len(overlay.rows) * (x.shape[0] // overlay.width)
    return _conv_flop(rows, x.shape, overlay.base.shape, stride, pad), 0.0


def _work_linear_batched(x, weights, bias):
    _, out_f, in_f = weights.shape
    return 2.0 * (x.size // in_f) * out_f * in_f, 0.0


def _work_linear_overlay(x, overlay, bias):
    out_f, in_f = overlay.base.shape
    rows = x.size // in_f
    rows += len(overlay.rows) * (rows // overlay.width)
    return 2.0 * rows * out_f * in_f, 0.0


def _work_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh, ow = _conv_out(x.shape, kh, kw, stride, pad)
    item = x.dtype.itemsize
    padded = n * c * (h + 2 * pad) * (w + 2 * pad) * item
    moved = x.nbytes + n * c * kh * kw * oh * ow * item  # read + patch write
    if pad:
        moved += 2 * padded  # pad copy written, then read by the gather
    return 0.0, float(moved)


#: op -> [(owner, attribute, work function or None)]
def _nn_targets():
    acts = [getattr(layers, n) for n in
            ("ReLU", "GELU", "SiLU", "Hardswish", "Hardsigmoid", "Sigmoid")]
    return {
        "conv2d": [(F, "conv2d_forward", _work_conv2d)],
        "conv2d_batched": [(F, "conv2d_forward_batched", _work_conv2d_batched)],
        "conv2d_overlay": [(F, "conv2d_forward_overlay", _work_conv2d_overlay)],
        "im2col": [(F, "im2col", _work_im2col)],
        "linear": [(layers.Linear, "forward", None)],
        "linear_batched": [(F, "linear_forward_batched", _work_linear_batched)],
        "linear_overlay": [(F, "linear_forward_overlay", _work_linear_overlay)],
        "batchnorm": [(layers.BatchNorm2d, "forward", None)],
        "layernorm": [(layers.LayerNorm, "forward", None)],
        "act": [(cls, "forward", None) for cls in acts],
        "attention": [(attention.MultiHeadSelfAttention, "forward", None)],
        "loss": [
            (loss.CrossEntropyLoss, "forward", None),
            (sensitivity, "folded_cross_entropy", None),
            (core_evaluate, "folded_cross_entropy", None),
        ],
    }


NN_OPS = tuple(_nn_targets())
GEMM_OPS = ("conv2d", "conv2d_batched", "conv2d_overlay",
            "linear_batched", "linear_overlay")


def _layer_targets():
    return {
        "models.load": [(models, "get_pretrained", None)],
        "data.sens_set": [(data, "sensitivity_set", None)],
        "quant.table": [(quant.QuantizedWeightTable, "__init__", None)],
        "quant.calibrate": [(core, "setup_activation_quant", None)],
        "sweep.measure": [(sensitivity.SensitivityEngine, "measure", None)],
        "psd.project": [(clado, "psd_project", None)],
        "solve": [(clado.MPQAlgorithm, "allocate", None)],
        "solve.relax": [(branch_bound, "solve_relaxation", None)],
        "store.load": [(store.ArtifactStore, "load", None)],
        "store.publish": [(store.ArtifactStore, "publish", None)],
        "evaluate": [(core, "evaluate_assignment", None)],
        **{f"nn.{op}": t for op, t in _nn_targets().items()},
    }


_KEEP_DURATIONS = frozenset({"solve"})


class Tracer:
    """Patches the targets with timing wrappers; restores them on exit."""

    def __init__(self) -> None:
        self.stats: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "flop": 0.0, "bytes": 0.0}
        )
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.covered_s = 0.0  # time inside outermost wrapped calls
        self._stack: List[List[float]] = []
        self._saved: list = []

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]):
        stats, stack, durations = self.stats, self._stack, self.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[name]
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame[0]
                if name in _KEEP_DURATIONS:
                    durations[name].append(dt)
                if work is not None:
                    flop, moved = work(*args, **kwargs)
                    st["flop"] += flop
                    st["bytes"] += moved
                if stack:
                    stack[-1][0] += dt
                else:
                    self.covered_s += dt

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, targets in _layer_targets().items():
            for owner, attr, work in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def reset(self) -> None:
        self.stats.clear()
        self.durations.clear()
        self.covered_s = 0.0


def span_total(tree: dict, name: str) -> float:
    """Sum of ``total_s`` over every manifest span node called ``name``."""
    total = tree.get("total_s", 0.0) if tree.get("name") == name else 0.0
    return total + sum(span_total(c, name) for c in tree.get("children", ()))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def setup_metrics(tracer: Tracer, manifest: dict) -> Dict[str, float]:
    s = tracer.stats
    return {
        "models.load_s": s["models.load"]["total_s"],
        "data.sens_set_s": s["data.sens_set"]["total_s"],
        "quant.table_s": s["quant.table"]["total_s"],
        "quant.calibrate_s": s["quant.calibrate"]["total_s"],
        "quant.calibration_calls": float(
            manifest["counters"].get("quant.calibration_calls", 0)),
    }


def request_metrics(tracer: Tracer, manifest: dict, outcome, entry_bytes: int,
                    untraced_alloc_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced request (see README.md)."""
    s, c, g = tracer.stats, manifest["counters"], manifest["gauges"]
    spans = manifest["spans"]
    health_s = span_total(spans, "sweep.health")
    sweep_s = max(0.0, s["sweep.measure"]["total_s"] - health_s)
    remeasured = c.get("health.remeasured", 0)
    sweep_evals = c.get("sensitivity.forward_evals", 0) - remeasured
    quarantined = c.get("health.quarantined", 0)
    hits = c.get("sweep.prefix_cache_hits", 0)
    misses = c.get("sweep.prefix_cache_misses", 0)
    solves = sorted(tracer.durations.get("solve", [])) or [0.0]
    nodes = c.get("solver.bb_nodes_expanded", 0)
    relax_calls = s["solve.relax"]["calls"]
    out = {
        "sweep.s": sweep_s,
        "sweep.evals": float(sweep_evals),
        "sweep.evals_per_s": _ratio(sweep_evals, sweep_s),
        "sweep.segment_forwards": float(
            c.get("sensitivity.segment_forwards", 0)),
        "sweep.batch_width_mean": float(g.get("sweep.batch_width_mean", 0.0)),
        "sweep.prefix_hit_ratio": _ratio(hits, hits + misses),
        "health.s": health_s,
        "health.quarantined": float(quarantined),
        "health.remeasured": float(remeasured),
        # A confirmed entry re-measured bitwise identical: wasted work.
        "health.useful_ratio": _ratio(
            quarantined - c.get("health.confirmed", 0), quarantined),
        "psd.project_s": s["psd.project"]["total_s"],
        "solve.s": s["solve"]["total_s"],
        "solve.p50_s": float(solves[(len(solves) - 1) // 2]),
        "solve.max_s": float(solves[-1]),
        "solve.bb_nodes": float(nodes),
        "solve.s_per_node": _ratio(s["solve"]["total_s"], nodes),
        "solve.relax_calls": float(relax_calls),
        "solve.relax_iters": float(c.get("solver.qp_iterations", 0)),
        "solve.relax_s": s["solve.relax"]["total_s"],
        "solve.prune_ratio": _ratio(c.get("solver.bb_bounds_pruned", 0),
                                    relax_calls),
        "solve.limit_hits": float(sum(not ok for ok in outcome.certified)),
        "solve.certified_frac": _ratio(sum(outcome.certified),
                                       len(outcome.certified)),
        "solve.objective_ratio": _ratio(outcome.objective,
                                        outcome.greedy_objective),
        "store.publish_s": s["store.publish"]["total_s"],
        "store.entry_bytes": float(entry_bytes),
        "store.load_s": s["store.load"]["total_s"],
        "evaluate.s": s["evaluate"]["total_s"],
        "trace.overhead_frac": outcome.alloc_s / untraced_alloc_s - 1.0,
        "trace.unattributed_frac": max(
            0.0, 1.0 - tracer.covered_s / outcome.alloc_s),
    }
    for op in NN_OPS:
        st = s[f"nn.{op}"]
        out[f"nn.{op}.calls"] = float(st["calls"])
        out[f"nn.{op}.self_s"] = st["self_s"]
        if op in GEMM_OPS:
            out[f"nn.{op}.gflop"] = st["flop"] / 1e9
            out[f"nn.{op}.gflop_per_s"] = _ratio(st["flop"] / 1e9, st["total_s"])
    out["nn.im2col.gbytes"] = s["nn.im2col"]["bytes"] / 1e9
    return out
