#!/usr/bin/env python3
"""Allocation benchmark: cold sweep vs warm serve, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cold-resnet34 --seed 3 --seconds 30 --trace 0

One client sends ``repro.store.allocate_cached`` requests (what
``repro allocate-cached ... --evaluate`` runs) in a closed loop for
``--seconds``, on one core (one BLAS thread, one sweep worker).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced request and prints the per-layer metrics.  The
last line of standard output is one JSON object.  The first run in a
checkout pretrains the pinned models into ``perfbench/.cache``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"
WARM_STORE = CACHE / "warm-store"
#: Fresh-process set-ups per run, spread evenly before, between and after
#: the requests so that they sample the same stretch of time.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
PRETRAIN_TIMEOUT_S = 800


def _configure_environment() -> None:
    """Pin BLAS to one thread and keep every file inside the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(CACHE)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _child(role: str, *extra: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--role", role, *extra]


def _blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (-1 when it cannot be asked)."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return -1


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    files = [*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- pinned inputs ------------------------------------------------------------


def prepare(bench) -> dict:
    """Pretrain and pin the models once per checkout; fill the warm store."""
    pins = bench.load_pins(CACHE)
    needed = sorted({w.model for w in bench.WORKLOADS.values()} - set(pins))
    if needed:
        pretrain(bench, pins, needed)
    fill_warm_store(bench)
    return pins


def warm_store() -> Path:
    """The warm store of the code at hand, named by its source digest."""
    return WARM_STORE / _source_digest()[:16]


def fill_warm_store(bench) -> None:
    """Fill the warm store with this code unless this code already did.

    The store key covers weights, data and quantizer config but not code,
    so a store filled by other code (another commit measured in the same
    tree) would serve that code's Ĝ.  It is deleted and refilled.
    """
    root = warm_store()
    done = root / "done.json"
    if done.exists() and json.loads(done.read_text()).get(
            "source_sha256") == _source_digest():
        return
    t0 = perf_counter()
    bench.fresh_dir(WARM_STORE)
    for workload in bench.WORKLOADS.values():
        if workload.warm:
            replicates = list(range(bench.WARM_POOL))
            pool = root / workload.name
            pool.mkdir(parents=True)
            fill(workload.name, [replicates[0::2], replicates[1::2]], pool)
    done.write_text(json.dumps({"source_sha256": _source_digest(),
                                "replicates": bench.WARM_POOL,
                                "fill_s": perf_counter() - t0}) + "\n")
    print(f"prepare: filled the warm store for source {root.name} in "
          f"{perf_counter() - t0:.1f} s (reported, not compared)")


def pretrain(bench, pins: dict, needed) -> None:
    """Pretrain ``needed`` side by side and record each weights hash.

    Each child loads or trains its model and prints the hash as its last
    line, so this process never holds a model (``peak_rss_mb``).
    """
    t0 = perf_counter()
    outs = {m: WORK / f"pretrain-{m}.out" for m in needed}
    procs = []
    for m in needed:
        with open(outs[m], "w") as sink:
            procs.append(subprocess.Popen(_child("pretrain", "--model", m),
                                          cwd=ROOT, stdout=sink))
    codes = [_reap(p, PRETRAIN_TIMEOUT_S) for p in procs]
    if any(codes):
        raise RuntimeError(f"pretraining failed with exit codes {codes}")
    for name in needed:
        last = outs[name].read_text().splitlines()[-1]
        pins[name] = {"weights_sha256": json.loads(last)["weights_sha256"],
                      "prepare_s": perf_counter() - t0}
        outs[name].unlink()
    bench.save_pins(CACHE, pins)
    print(f"prepare: pretrained {', '.join(needed)} in "
          f"{perf_counter() - t0:.1f} s (reported, not compared)")


# -- child roles --------------------------------------------------------------


def child_main(args) -> int:
    import bench

    if args.role == "pretrain":
        model, _ = bench.models.get_pretrained(args.model,
                                               bench.data.make_dataset())
        print(json.dumps({"weights_sha256": bench.state_hash(model)}))
        return 0
    if args.role == "record-reference":
        return record_reference(bench, args.replicate)
    workload = bench.WORKLOADS[args.workload]
    if args.role == "fill":
        for replicate in map(int, args.replicates.split(",")):
            session = bench.setup(workload, replicate)
            bench.verify_pin(session, bench.load_pins(CACHE))
            bench.fill_store(session, Path(args.store))
        return 0
    session = bench.setup(workload, args.replicate)
    print("ready", flush=True)
    bench.verify_pin(session, bench.load_pins(CACHE))
    return 0


def _spawn(role: str, workload: str, *extra: str, **kwargs):
    return subprocess.Popen(_child(role, "--workload", workload, *extra),
                            cwd=ROOT, **kwargs)


def _reap(proc, timeout: float = CHILD_TIMEOUT_S) -> int:
    """Wait for a child; kill it if it outlives ``timeout`` or we fail."""
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def probe_setup(workload: str, replicate: int) -> float:
    """Process start until the first request could be sent, in a fresh process."""
    t0 = perf_counter()
    proc = _spawn("setup-probe", workload, "--replicate", str(replicate),
                  stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        code = _reap(proc)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def fill(workload: str, groups, root: Path) -> None:
    """Fill a warm store with this checkout's code, before timing starts.

    One child process per group of replicates, run side by side; they
    publish different keys into the same store.
    """
    procs = [_spawn("fill", workload, "--store", str(root), "--replicates",
                    ",".join(map(str, group)), stdout=subprocess.DEVNULL)
             for group in groups]
    codes = [_reap(p) for p in procs]
    if any(codes):
        raise RuntimeError(f"warm-store fill failed with exit codes {codes}")


def record_reference(bench, replicate: int) -> int:
    """Write ``reference.json``: Ĝ and budget optima of ``replicate``."""
    pins = prepare(bench)
    ref = {"replicate": replicate, "set_size": bench.SET_SIZE, "models": {}}
    for workload in bench.WORKLOADS.values():
        session = bench.setup(workload, replicate)
        weights = bench.verify_pin(session, pins)
        root = bench.fresh_dir(WORK / "reference-store")
        if workload.warm:
            bench.fill_store(session, root)
        outcome = bench.request(session, root)
        shutil.rmtree(root)
        if outcome.failures:
            raise RuntimeError(f"{workload.name}: {outcome.failures}")
        entry = bench.reference_entry(session)
        model = ref["models"].setdefault(
            workload.model, {"weights_sha256": weights, "ghat": entry["ghat"],
                             "optima": {}})
        model["optima"].update(entry["optima"])
    bench.REFERENCE_PATH.write_text(json.dumps(ref) + "\n")
    return 0


# -- the benchmark run --------------------------------------------------------


class Checker:
    """Run-level checks on top of each request's own output checks.

    The committed reference is compared on the first request of the
    replicate it was recorded for, and every later request of a replicate
    must return the assignments of its first.
    """

    def __init__(self, bench, pins: dict) -> None:
        self.bench = bench
        self.pins = pins
        self.weights: dict = {}
        self.choices: dict = {}
        self.reference_checked = False

    def setup(self, workload, replicate: int):
        """Set up one replicate's session; refuse weights that are not pinned."""
        session = self.bench.setup(workload, replicate)
        self.weights[replicate] = self.bench.verify_pin(session, self.pins)
        return session

    def request(self, session, root: Path):
        """One request plus its checks; returns ``(outcome, failures)``."""
        try:
            outcome = self.bench.request(session, root)
        except Exception as exc:  # a raising request counts as failed
            traceback.print_exc()
            return None, [f"request raised {type(exc).__name__}: {exc}"]
        failures = list(outcome.failures)
        first = self.choices.setdefault(session.replicate, outcome.choices)
        if first is outcome.choices:
            checked, bad = self.bench.check_reference(
                session, outcome, self.weights[session.replicate])
            self.reference_checked |= checked
            failures += bad
        elif outcome.choices != first:
            failures.append("assignment differs from the replicate's first "
                            "request")
        return outcome, failures


def _store_for(bench, session, store_root: Path) -> Path:
    """The checkout's warm store; a fresh empty store for a cold request."""
    if session.workload.warm:
        return warm_store() / session.workload.name
    return bench.fresh_dir(store_root)


def timed_loop(bench, seconds: float, workload, replicates, store_root: Path,
               checker):
    """Closed loop, one client: requests cycle through the replicates.

    Stops at the end of the first pass over the replicates that ends after
    ``seconds``, so every replicate is served equally often.
    Only one session is alive at a time, as in a process serving one set,
    so ``peak_rss_mb`` does not add up the sessions' memory.  The
    ``SETUP_PROBES`` set-up probes are spread over the slots before each
    of the first ``len(replicates)`` requests and after the last request,
    while this process is idle.  Returns ``(outcomes, failures, setup
    samples)``.
    """
    outcomes, failures, setup_samples = [], [], []
    slots = len(replicates) + 1

    def probes(slot):
        count = (SETUP_PROBES * (slot + 1) // slots
                 - SETUP_PROBES * slot // slots)
        setup_samples.extend(probe_setup(workload.name, replicates[0])
                             for _ in range(count))

    t0 = perf_counter()
    while True:
        if len(outcomes) < len(replicates):
            probes(len(outcomes))
        session = checker.setup(
            workload, replicates[len(outcomes) % len(replicates)])
        outcome, bad = checker.request(
            session, _store_for(bench, session, store_root))
        del session
        gc.collect()
        outcomes.append(outcome)
        failures.append(bad)
        if (perf_counter() - t0 >= seconds
                and len(outcomes) % len(replicates) == 0):
            probes(slots - 1)
            return outcomes, failures, setup_samples


def traced_pass(bench, args, replicate: int, store_root: Path, pins: dict):
    """Traced set-up, one untraced request, then one traced request."""
    import tracing
    from repro import telemetry

    def manifest_run(label):
        return telemetry.start_run(f"perfbench.{args.workload}.{label}",
                                   seeds={"replicate": replicate},
                                   manifest_dir=store_root.parent / "runs")

    tracer = tracing.Tracer()
    checker = Checker(bench, pins)
    with tracer, manifest_run("setup") as run:
        session = checker.setup(bench.WORKLOADS[args.workload], replicate)
    layer = tracing.setup_metrics(tracer, telemetry.load_manifest(run.path))
    plain, bad0 = checker.request(session, _store_for(bench, session, store_root))
    tracer.reset()
    with tracer, manifest_run("request") as run:
        root = _store_for(bench, session, store_root)
        traced, bad1 = checker.request(session, root)
    if plain is not None and traced is not None:
        layer.update(tracing.request_metrics(
            tracer, telemetry.load_manifest(run.path), traced,
            bench.entry_bytes(session, root), plain.alloc_s))
        # The program's own eval counter, net of health re-measures.
        algo = session.algo
        want = 0 if session.workload.warm else bench.closed_form_evals(
            len(algo.layers), len(algo.config.bits))
        if layer["sweep.evals"] != want:
            bad1.append(f"sensitivity.forward_evals minus health.remeasured "
                        f"is {layer['sweep.evals']:.0f}, expected {want}")
    return [plain, traced], [bad0, bad1], layer, checker


def run_record(bench, args, replicates, checker, pins: dict) -> dict:
    import numpy
    from repro import telemetry

    return {
        "workload": args.workload,
        "seed": args.seed,
        "replicates": replicates,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "num_workers": bench.NUM_WORKERS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_rev": telemetry.git_revision(),
        "source_sha256": _source_digest(),
        "warm_store": warm_store().name,
        "weights_sha256": {m: p["weights_sha256"] for m, p in sorted(pins.items())},
        "reference_checked": bool(checker and checker.reference_checked),
        "set_size": bench.SET_SIZE,
        "max_nodes": bench.MAX_NODES,
        "clients": 1,
        "loop": "closed",
    }


def _print_metrics(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<18} {note}")


def end_to_end(bench, good, setup_samples, units):
    """``(values, printed rows)`` of the untraced metrics."""
    median = statistics.median
    certified = [c for o in good for c in o.certified]
    values = {
        "setup_s": median(setup_samples),
        "alloc_s": statistics.fmean([o.alloc_s for o in good]),
        "val_top1": median([o.val_top1 for o in good]),
        "objective": median([o.objective for o in good]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh-process set-ups",
        "alloc_s": f"mean of {len(good)} requests, the same replicates "
                   f"every run",
        "val_top1": f"median of {len(good)} requests, mean over budgets, "
                    f"{bench.VAL_IMAGES} val images",
        "objective": f"median of {len(good)} requests, sum over budgets",
        "peak_rss_mb": "peak resident memory of this process",
    }
    rows = [(n, v, units[n], notes[n]) for n, v in values.items()]
    rows += [
        ("objective_ratio", median([o.objective / o.greedy_objective
                                    for o in good]), "1",
         "reported, not gated: over the greedy solver's objective"),
        ("certified_frac", sum(certified) / len(certified), "fraction",
         f"reported, not gated: of {len(certified)} budget solves"),
    ]
    return values, rows


def bench_main(args) -> int:
    import bench
    import metrics

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = bench.WORKLOADS[args.workload]
    pins = prepare(bench)
    replicates = bench.replicates(workload, args.seed)
    if args.trace:
        replicates = replicates[:1]  # the traced pass serves one replicate
    work = bench.fresh_dir(WORK / f"{args.workload}-{os.getpid()}")
    store_root = work / "store"
    try:
        if args.trace:
            outcomes, failures, layer_metrics, checker = traced_pass(
                bench, args, replicates[0], store_root, pins)
        else:
            checker = Checker(bench, pins)
            outcomes, failures, setup_samples = timed_loop(
                bench, args.seconds, workload, replicates, store_root, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [o for o, bad in zip(outcomes, failures) if o is not None and not bad]
    failed = sum(1 for bad in failures if bad)
    for i, bad in enumerate(failures):
        for message in bad:
            print(f"check failed (request {i}): {message}")
    print(f"workload {workload.name} ({workload.model}, "
          f"{'/'.join(map(str, workload.avg_bits))} avg bits, "
          f"{'warm' if workload.warm else 'cold'} store), seed {args.seed}, "
          f"replicates {replicates}: {len(outcomes)} requests, closed loop, "
          f"1 client")
    result = {"correct": failed == 0 and bool(good), "attempted": len(outcomes),
              "failed": failed, "metrics": {}}
    print(f"failed_frac: {failed / len(outcomes):.6g} "
          f"({failed} of {len(outcomes)} requests)")
    if good and args.trace:
        result["metrics"] = {n: {"value": layer_metrics[n], "unit": u}
                             for n, u in units.items()}
        _print_metrics("per-layer metrics (one traced request; FLOP and byte "
                       "counts computed from shapes) and what each should move:",
                       [(n, layer_metrics[n], u, metrics.MOVES[n])
                        for n, u in units.items()])
    elif good:
        values, rows = end_to_end(bench, good, setup_samples, units)
        print("alloc_s samples: " + " ".join(f"{o.alloc_s:.4f}" for o in good))
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_samples))
        _print_metrics("end-to-end metrics:", rows)
        result["metrics"] = {n: {"value": values[n], "unit": u}
                             for n, u in units.items()}
    print("run record: " + json.dumps(
        run_record(bench, args, replicates, checker, pins), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="cold-resnet34")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", default="bench",
                        choices=("bench", "pretrain", "setup-probe", "fill",
                                 "record-reference"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--replicate", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--replicates", help=argparse.SUPPRESS)
    parser.add_argument("--model", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    _configure_environment()
    if args.role != "bench":
        return child_main(args)
    import bench

    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        # One process per workload, in turn, each printing its own result.
        return max(subprocess.run(_child(
            "bench", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)),
            cwd=ROOT).returncode for name in bench.WORKLOADS)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(bench.WORKLOADS)}, or all)")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
