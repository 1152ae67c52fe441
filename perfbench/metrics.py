"""What each per-layer metric should move.

``BENCHMARK.json`` holds every metric's name, unit and direction; this map
adds the end-to-end metric and workload each per-layer metric should
move, printed beside its value in a traced run.  Workloads: CR =
cold-resnet34, WV = warm-vit.  Only a vit_s sweep calls
``linear_batched`` and ``linear_overlay``, so they read 0 on both.
"""

from __future__ import annotations

SETUP = "setup_s on CR and WV"
SWEEP = "alloc_s, peak_rss_mb on CR; nothing on WV"
HEALTH = "alloc_s mostly on CR"
CONV = "alloc_s, peak_rss_mb on CR; nothing on WV"
VIT = "alloc_s on WV via evaluation only; nothing on CR"
VIT_SWEEP = "nothing: only a vit_s sweep calls it (0 on CR and WV)"
BOTH = "alloc_s on CR (and WV via evaluation only)"
SOLVE = ("alloc_s, objective and the printed certified_frac on WV; "
         "almost nothing on CR")
COLD_STORE = "alloc_s on CR"

_NN = {
    "conv2d": CONV, "conv2d_batched": CONV, "conv2d_overlay": CONV,
    "im2col": CONV, "batchnorm": CONV, "linear": VIT,
    "linear_batched": VIT_SWEEP, "linear_overlay": VIT_SWEEP, "layernorm": VIT,
    "attention": VIT, "act": BOTH, "loss": BOTH,
}

MOVES = {
    "models.load_s": SETUP,
    "data.sens_set_s": SETUP,
    "quant.table_s": SETUP,
    "quant.calibrate_s": SETUP,
    "quant.calibration_calls": SETUP,
    "sweep.s": SWEEP,
    "sweep.evals": SWEEP,
    "sweep.evals_per_s": SWEEP,
    "sweep.segment_forwards": SWEEP,
    "sweep.batch_width_mean": SWEEP,
    "sweep.prefix_hit_ratio": SWEEP,
    "health.s": HEALTH,
    "health.quarantined": HEALTH,
    "health.remeasured": HEALTH,
    "health.useful_ratio": HEALTH,
    **{f"nn.{op}.{stat}": moves for op, moves in _NN.items()
       for stat in ("calls", "self_s", "gflop", "gflop_per_s", "gbytes")},
    "psd.project_s": "alloc_s a little on CR and WV",
    **{f"solve.{stat}": SOLVE for stat in (
        "s", "p50_s", "max_s", "bb_nodes", "s_per_node", "relax_calls",
        "relax_iters", "relax_s", "prune_ratio", "limit_hits",
        "certified_frac")},
    "solve.objective_ratio": "objective on WV",
    "store.publish_s": COLD_STORE,
    "store.entry_bytes": COLD_STORE,
    "store.load_s": "alloc_s on WV",
    "evaluate.s": "alloc_s on CR and WV",
    "trace.overhead_frac": "none: traced alloc_s over untraced, minus 1",
    "trace.unattributed_frac": "none: share of alloc_s outside every wrapped call",
}
