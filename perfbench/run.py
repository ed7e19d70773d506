"""pathreg pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-1d --seed 42 --seconds 10 --trace 0

With ``--trace 0`` it times the workload with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it runs the workload untraced and then
traced, and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and
units are those ``BENCHMARK.json`` lists.

A pass runs every op of the workload once, in order.  The benchmark starts
passes until ``--seconds`` have gone by, and always makes at least one.  The
ops run in this process, one after another, with BLAS left at its default
thread count (at most ``nproc``).  ``pathreg`` is imported from the
checkout's ``src`` and nowhere else.

``setup_s`` is the median wall time of cold ``python -m pathreg.cli analyze``
processes, because a CLI user pays interpreter start and imports on every
call.  They are started one at a time between units, spread over the run, so
that one slow spell of the machine does not set them all.

Everything the benchmark writes stays under ``perfbench/work`` and
``perfbench/results``.  Per-op digests of a run are kept in
``perfbench/results/digests``, keyed by workload, seed, a hash of
``src/pathreg`` and the numerical environment (Python, numpy, BLAS and its
thread count); a later run with the same key is compared with them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

import oracle
import stats
from workloads import DERIVATIVE_COUNT, DERIVATIVE_GRID, DERIVATIVE_KERNEL, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
DEFAULT_SEED = 42  # the desk profile's seed
SETUP_SAMPLES = 9
SETUP_ARGV = ("-m", "pathreg.cli", "analyze", "-k", "matern(nu=2.5)")
# facts that can change floating-point results while the source stays the same
NUMERIC_ENV = ("python", "numpy", "blas", "blas_version", "blas_threads")


def die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in ``section``."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_key(src: str, facts: dict) -> str:
    """Hash of ``src/pathreg`` and the numerical environment."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "pathreg", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update(json.dumps([facts[k] for k in NUMERIC_ENV]).encode())
    return h.hexdigest()[:16]


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "seed": seed,
    }


def _blas_threads(np):
    # numpy wheels bundle OpenBLAS with a prefixed symbol; other builds may not
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def import_pathreg(src: str):
    sys.path.insert(0, src)
    import pathreg
    import pathreg.cli

    where = os.path.dirname(os.path.abspath(pathreg.__file__))
    if os.path.dirname(where) != src:
        raise ImportError(f"pathreg was imported from {where}, not from {src}")
    return pathreg


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _snapshot(workdir: str) -> dict:
    out = {}
    for entry in os.scandir(workdir):
        st = entry.stat()
        out[entry.name] = (st.st_mtime_ns, st.st_size)
    return out


class Runner:
    """Runs a workload's ops in-process, times each, checks each against the
    oracle and digests what it wrote.  Ops name their files relative to the
    current directory, which is the work directory."""

    def __init__(self, pathreg, src: str, setup_samples: int = 0):
        self.pathreg = pathreg
        self.src = src
        self.setup_samples = setup_samples
        self.setup_s: list[float] = []

    def sample_setup(self) -> None:
        """Time one cold CLI process and check what it printed."""
        env = dict(os.environ, PYTHONPATH=self.src)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], env=env, capture_output=True,
                              text=True, timeout=60)
        self.setup_s.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold CLI exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        order = json.loads(proc.stdout)["per_axis"][0]["order"]
        if order != 2.5:
            raise RuntimeError(f"cold CLI analyze gave order {order!r}, expected 2.5")

    def _cli(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pathreg.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def _derivative(self, seed: int) -> tuple[int, str, str]:
        # looked up on the modules at call time, so a traced run sees the wrappers
        p = self.pathreg
        expr = p.dsl.parse_kernel(DERIVATIVE_KERNEL)
        grid = p.sampling.Grid((p.sampling.Axis(*DERIVATIVE_GRID),))
        samples = p.sampling.sample_derivative_paths(expr, 1, grid, DERIVATIVE_COUNT, seed)
        est = p.structure.estimate_path_regularity(samples)
        payload = {"s_hat": est.s_hat, "lower_bound": est.lower_bound, "m_used": est.m_used,
                   "samples_sha256": hashlib.sha256(samples.samples.tobytes()).hexdigest()}
        return 0, json.dumps(payload), ""

    def run_op(self, op, inline: dict) -> dict:
        """Run one op; returns its latency, exit code, failures and digest.
        An op that raised has the exit code ``"raised <exception type>"``."""
        before = _snapshot(".")
        start = time.perf_counter()
        try:
            if op.kind == "derivative":
                code, out, err = self._derivative(op.seed)
            else:
                code, out, err = self._cli(op.argv)
        except Exception as exc:
            latency = time.perf_counter() - start
            tb = traceback.format_exc(limit=3).strip().splitlines()[-1]
            return {"latency_s": latency, "exit": f"raised {type(exc).__name__}",
                    "failures": [("exit", f"raised {tb}")], "digest": ""}
        latency = time.perf_counter() - start
        return {"latency_s": latency, "exit": code,
                "failures": self._check(op, code, out, err, inline),
                "digest": self._digest(before, out)}

    def _check(self, op, code, out, err, inline) -> list:
        if code != 0 and not out:
            return [("exit", f"exit {code}: {err.strip()[:120]}")]
        payload = json.loads(out)
        failures = [] if code == 0 else [("exit", f"exit {code}")]
        if op.kind == "verify":
            failures += oracle.check_verify(payload, op.expect)
        elif op.kind == "report":
            failures += oracle.check_verify(payload["verify"], op.expect)
            failures += oracle.check_estimate(payload["estimate"], op.expect)
            inline["estimate"] = payload["estimate"]
        elif op.kind == "estimate":
            failures += oracle.check_estimate(payload, op.expect)
            failures += oracle.check_roundtrip(payload, inline.get("estimate"))
        else:
            failures += oracle.check_estimate(payload, op.expect)
        return failures

    def _digest(self, before: dict, out: str) -> str:
        """sha256 over the op's stdout payload and every file it wrote."""
        h = hashlib.sha256(out.encode())
        after = _snapshot(".")
        for name in sorted(n for n, v in after.items() if before.get(n) != v):
            h.update(f"\0{name}\0{_sha256_file(name)}".encode())
        return h.hexdigest()

    def run_passes(self, units, label: str, seconds: float = 0.0, passes: int = 0,
                   tracer=None) -> list[dict]:
        """Run ``passes`` passes, or as many as start within ``seconds``."""
        records = []
        start = time.perf_counter()

        def more(p: int) -> bool:
            if passes:
                return p < passes
            return p == 0 or time.perf_counter() - start < seconds

        # one cold start every `stride` units: about three per pass
        stride = max(1, len(units) // 3)
        p = 0
        while more(p):
            for u, unit in enumerate(units):
                inline: dict = {}
                for op in unit:
                    if tracer is not None:
                        tracer.op = len(records)
                    records.append({"name": op.name, "pass": f"{label}{p}",
                                    **self.run_op(op, inline)})
                for entry in os.scandir("."):
                    os.remove(entry.path)
                if u % stride == 0 and len(self.setup_s) < self.setup_samples:
                    self.sample_setup()
            p += 1
        while len(self.setup_s) < self.setup_samples:
            self.sample_setup()
        return records


def traced_passes(pathreg, runner, units, untraced, spans_path) -> tuple[list, dict, int]:
    """As many passes as ``untraced`` made, with every public pathreg
    function wrapped; returns their records, the per-layer metrics and the
    number of spans."""
    import layers
    from spans import Tracer

    modules = [getattr(pathreg, name) for name in layers.MODULES]
    tracer = Tracer()
    tracer.install(modules, layers.HOOKS, extra_namespaces=[pathreg])
    try:
        passes = len({r["pass"] for r in untraced})
        records = runner.run_passes(units, "traced-", passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.spans, tracer.counters, passes)
    metrics["trace.overhead_s"] = (
        sum(r["latency_s"] for r in records) - sum(r["latency_s"] for r in untraced)
    ) / passes
    tracer.write(spans_path)
    return records, metrics, len(tracer.spans)


def check_digests(records, store: str) -> tuple[list[str], bool]:
    """Problems with determinism: an op whose digest differs between passes
    of this run, or from a stored run with the same key.  Also says whether
    a stored run existed; if not, this run's digests are stored."""
    problems = []
    seen: dict[str, str] = {}
    for r in records:
        if not r["digest"]:
            continue
        first = seen.setdefault(r["name"], r["digest"])
        if first != r["digest"]:
            problems.append(f"{r['name']}: digest differs between passes ({r['pass']})")
    if os.path.exists(store):
        with open(store) as fh:
            stored = json.load(fh)
        for name, digest in seen.items():
            if name in stored and stored[name] != digest:
                problems.append(f"{name}: digest differs from an earlier run of the same code, "
                                "seed and numerical environment")
        return problems, True
    os.makedirs(os.path.dirname(store), exist_ok=True)
    with open(store, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return problems, False


def pass_walls(records) -> list[float]:
    walls: dict[str, float] = {}
    for r in records:
        walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["latency_s"]
    return list(walls.values())


def end_to_end(records, setup_times, peak_rss_mb) -> tuple[dict, list[str]]:
    latencies = [r["latency_s"] for r in records]
    n = len(latencies)
    walls = pass_walls(records)
    failed = sum(1 for r in records if r["failures"])
    tail = stats.tail_percentile(latencies)
    values = {
        "wall_s": stats.median(walls),
        "op_p50_s": stats.median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": stats.median(setup_times),
    }
    notes = [
        f"wall_s       {values['wall_s']:12.4f} s      all ops of one pass, median of {len(walls)} passes",
        f"op_p50_s     {values['op_p50_s']:12.4f} s      median of {n} ops",
        (f"op_tail_s    {tail[1]:12.4f} s      p{tail[0]} of {n} ops"
         if tail else f"op_tail_s    {'n/a':>12}        {n} ops; a p50-or-higher percentile with "
                      f"{stats.TAIL_MIN_BEYOND} ops beyond it needs {2 * stats.TAIL_MIN_BEYOND}"),
        f"peak_rss_mb  {peak_rss_mb:12.1f} MB     benchmark process",
        f"error_rate   {stats.error_rate(failed, n):12.4f} ratio  {failed} failed of {n} attempted",
        f"setup_s      {values['setup_s']:12.4f} s      median of {len(setup_times)} cold CLI processes",
    ]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pathreg pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pathreg", "cli.py")):
        return die(f"no pathreg sources under {src}; run from the root of a pathreg checkout")
    units_of = metric_units("per_layer" if args.trace else "end_to_end")

    facts = machine_facts(args.seed)
    key = run_key(src, facts)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    workdir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    pathreg = import_pathreg(src)
    units = WORKLOADS[args.workload](args.seed)
    runner = Runner(pathreg, src, 0 if args.trace else SETUP_SAMPLES)
    home = os.getcwd()
    # ops name their files relative to the work directory, so payloads and
    # digests do not depend on where the checkout lives
    os.chdir(workdir)
    try:
        records = runner.run_passes(units, "untraced-", seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, layer_values, n_spans = [], {}, 0
        if args.trace:
            traced, layer_values, n_spans = traced_passes(
                pathreg, runner, units, records,
                os.path.join(results_dir, f"{args.workload}.spans.tsv.gz"))
    finally:
        os.chdir(home)
    shutil.rmtree(workdir, ignore_errors=True)

    all_records = records + traced
    store = os.path.join(results_dir, "digests", f"{args.workload}-seed{args.seed}-{key}.json")
    determinism, compared = check_digests(all_records, store)

    counted = traced if args.trace else records
    failing = [r for r in counted if r["failures"]]
    surprises = [(r["name"], oracle.unexpected(r["name"], r["failures"], r["exit"]))
                 for r in failing]
    surprises = [(name, f) for name, f in surprises if f]
    correct = not determinism and not surprises

    print(f"perfbench {args.workload}: seed {args.seed}, {len(pass_walls(counted))} pass(es), "
          f"trace {args.trace}, key {key}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        values = layer_values
    else:
        values, notes = end_to_end(records, runner.setup_s, peak_rss_mb)
    if set(values) != set(units_of):
        return die(f"metrics {sorted(set(values) ^ set(units_of))} are computed but not listed "
                   "in BENCHMARK.json, or listed but not computed")
    if args.trace:
        notes = [f"{name:30s} {value:16.6f} {units_of[name]}" for name, value in values.items()]
        notes.append(f"spans recorded: {n_spans}")
    print("\n".join(notes))
    print(f"failing ops ({len(failing)} of {len(counted)} attempted):")
    by_name: dict[str, list] = {}
    for r in failing:
        by_name.setdefault(r["name"], []).append(r)
    for name, rs in by_name.items():
        known = oracle.KNOWN_DEFECTS.get(name)
        label = f"known defect: {known.why}" if known else "NOT A KNOWN DEFECT"
        print(f"  {name} x{len(rs)} ({label}): "
              + "; ".join(f"{cat}: {msg}" for cat, msg in rs[0]["failures"]))
    if determinism:
        print("determinism: FAILED")
        for line in determinism:
            print(f"  {line}")
    else:
        print(f"determinism: {len({r['name'] for r in all_records})} op digests identical across "
              f"{len(pass_walls(all_records))} passes"
              + (", and equal to an earlier run with the same key" if compared
                 else f"; stored for later runs with key {key}"))
    for name, f in surprises:
        print(f"unexpected failure: {name}: {f}")

    summary = {
        "correct": correct,
        "attempted": len(counted),
        "failed": len(failing),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units_of.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump({**summary, "machine": facts, "key": key,
                   "failing_ops": [[r["name"], r["exit"], r["failures"]] for r in failing],
                   "determinism": determinism, "ops": all_records}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
