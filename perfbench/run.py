#!/usr/bin/env python3
"""DCCS query benchmark: closed loop, one client, fixed query lists.

    python3 perfbench/run.py --workload driver-cold --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/`` and
``jobs/`` of that checkout. One run:

1. records the environment (cores, memory, library versions, commit);
2. sets up the workload at least ``SETUP_REPS`` times and for at least
   ``SETUP_SECONDS`` -- Spark session start (Spark workloads),
   ``datasets.generate`` and the load into the engine, materialised, plus
   the shared contexts of ``driver-sweep`` -- and reports the median as
   ``setup_s``;
3. runs untimed warm-up passes over the query list (one; two on Spark);
4. runs timed passes while the next one still ends within ``--seconds``
   (at least ``MIN_PASSES``) and reports the median pass wall time as
   ``pass_s``;
5. with ``--trace 1``, alternates untimed-by-span passes with traced ones
   and reports per-layer figures of the traced passes instead (medians),
   plus ``trace.overhead`` = traced / untraced ``pass_s`` - 1.

Every query's output is checked (see ``checks.py``). The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only if every check passed. A per-run report with the
environment, per-query figures and (traced) spans is written under
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    canonical_entries,
    check_expected,
    check_valid,
    component_counts,
    fingerprint,
    load_expected,
    query_key,
)
from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import Tracer, install_layer_hooks, remove_hooks, trace_dcc  # noqa: E402
from workloads import D, WORKLOADS, Inputs, Query, Workload  # noqa: E402

END_TO_END: Dict[str, str] = {"setup_s": "s", "pass_s": "s", "driver_rss_mb": "MB"}
# Machine speed drifts over seconds on a shared VM, so set-up is repeated
# over a span of time, not only a number of times.
SETUP_REPS = 5
SETUP_SECONDS = 5.0
MIN_PASSES = 2  # timed passes, even when one pass outlasts --seconds
QUERY_TIME_BUDGET = 60.0  # seconds; a query past this is a DNF, i.e. failed
# Two task threads leave the JIT compiler and GC threads cores of their own;
# between-run spread of spark-job pass_s was lower than with local[4].
SPARK_CORES = min(2, os.cpu_count() or 1)


def import_program() -> None:
    """Put this checkout's ``src/`` and ``jobs/`` first on the import path."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "jobs")]
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from this checkout")


def environment(args, wl: Workload) -> Dict[str, object]:
    import numpy
    import pandas
    import pyspark

    mem_kb = 0
    with contextlib.suppress(OSError):
        with open("/proc/meminfo") as f:
            mem_kb = int(re.search(r"MemTotal:\s+(\d+)", f.read()).group(1))
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "jobs"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(f.read())
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "spark_master": f"local[{SPARK_CORES}]" if wl.spark else None,
    }


def configure_spark_launch() -> None:
    """JVM launch settings; must be set before the first session starts."""
    local_dirs = os.path.join(WORK, "spark-local")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(local_dirs, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local_dirs
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{SPARK_CORES}]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + tmp)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            # The status tracker forgets jobs past these; the defaults (1000)
            # undercount the job counts of a long pass.
            "--conf spark.ui.retainedJobs=1000000",
            "--conf spark.ui.retainedStages=1000000",
            "--conf spark.sql.ui.retainedExecutions=1000",
            "pyspark-shell",
        ]
    )


def start_session():
    """A session with the test suite's per-session settings (``conftest.py``)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_jvm() -> None:
    """Stop the session, close the gateway JVM and wait until it has exited."""
    from py4j.protocol import Py4JError
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    active = SparkSession.getActiveSession()
    if active is not None:
        active.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    with contextlib.suppress(Py4JError, OSError):
        gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        with contextlib.suppress(OSError):
            proc.stdin.close()  # the gateway server exits on stdin EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclasses.dataclass
class Outcome:
    query: Query
    seconds: float
    res: object = None
    ctx: object = None
    stdout: str = ""
    error: Optional[str] = None


class Bench:
    def __init__(self, wl: Workload, seed: int) -> None:
        from repro.datasets import SPECS

        self.wl = wl
        self.spec = SPECS[wl.dataset]
        self.tracer = Tracer()
        self.inputs = Inputs(seed, self.tracer)
        self.expected = load_expected()
        self.spark = None
        self.graph = None  # the engine's graph (local or Spark)
        self.local = None  # driver graph of the same input, for checks
        self.contexts: Dict[int, object] = {}
        self.captured: List[object] = []
        self._restore: List[object] = []
        # The vCPUs of a shared VM each run at their own speed, which drifts
        # over seconds, and the kernel keeps a single-threaded process on one
        # of them. So driver workloads move to the next allowed CPU before
        # every set-up and query, and one run samples all of them. Not on
        # Spark: the JVM inherits the affinity it is launched with.
        self.cpus = [] if wl.spark else sorted(os.sched_getaffinity(0))
        self._turn = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._valid: set = set()  # (query key, entries hash) found valid
        self._reference: Dict[str, object] = {}
        self.setup_reps: List[Dict[str, float]] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        from repro.core import engine
        from repro.datasets import load_local, load_spark

        self.inputs.install()
        t_start = time.perf_counter()
        while len(self.setup_reps) < SETUP_REPS or time.perf_counter() - t_start < SETUP_SECONDS:
            # Drop the last rep's graph and contexts, so the peak RSS holds
            # one set-up's worth, as the program does.
            self.graph = None
            self.contexts = {}
            self.next_cpu()
            self.inputs.reset_clock()
            if self.spark is not None:
                self.spark.stop()  # stopping the last session is not set-up
            t0 = time.perf_counter()
            if self.wl.spark:
                self.spark = start_session()
                t1 = time.perf_counter()
                g, _ = load_spark(self.spark, self.wl.dataset)
                g.edges.count()  # from_pandas is lazy: bill ingest here
                g.vertices.count()
            else:
                t1 = time.perf_counter()
                g, _ = load_local(self.wl.dataset)
            t2 = time.perf_counter()
            if self.wl.kind == "shared":
                self.contexts = {
                    s: engine.local_context(g, D, s) for s in sorted({q.s for q in self.wl.queries})
                }
            t3 = time.perf_counter()
            relabel = self.inputs.relabel_s
            self.setup_reps.append(
                {
                    "setup_s": t3 - t0 - relabel,
                    "session_s": t1 - t0,
                    "generate_s": self.inputs.generate_s,
                    "load_s": t2 - t1 - relabel - self.inputs.generate_s,
                    "contexts_s": t3 - t2,
                }
            )
            self.graph = g
        if self.wl.spark:
            from repro.pyref.local_graph import LocalMLGraph

            # Keep the context run_dccs.main builds, to check it afterwards.
            build = engine.spark_context

            def spark_context(*args, **kwargs):
                ctx = build(*args, **kwargs)
                self.captured.append(ctx)
                return ctx

            engine.spark_context = spark_context
            self._restore.append(lambda: setattr(engine, "spark_context", build))
            self.tracer.sc = self.spark.sparkContext
            pdf = self.inputs.frames[self.wl.dataset]
            self.local = LocalMLGraph.from_edges(
                pdf.itertuples(index=False, name=None),
                n_layers=self.spec.l,
                vertices=range(1, self.spec.n + 1),
            )
        else:
            self.local = self.graph

    def next_cpu(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self._turn % len(self.cpus)]})
            self._turn += 1

    def close(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
        self.inputs.remove()
        remove_hooks(self.tracer)
        for undo in self._restore:
            undo()
        if self.wl.spark:
            shutdown_jvm()

    # -- queries -------------------------------------------------------------

    def _execute(self, q: Query, traced: bool) -> Outcome:
        from repro.core import engine
        from repro.harness import run_algorithm

        out = Outcome(q, 0.0)
        t0 = time.perf_counter()
        with self.tracer.span("query", spark=self.wl.spark):
            if self.wl.kind == "job":
                import run_dccs

                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), self.tracer.span("job", spark=True):
                    out.res = run_dccs.main(
                        self.spark, dataset=self.wl.dataset, algo=q.algo, d=D, s=q.s, k=q.k,
                        engine="hybrid",
                    )
                out.stdout = buf.getvalue()
                out.ctx = self.captured.pop() if self.captured else None
            else:
                if self.wl.kind == "shared":
                    ctx = self.contexts[q.s]
                    if traced:  # built untraced in set-up: trace a copy
                        ctx = dataclasses.replace(ctx)
                        trace_dcc(self.tracer, ctx)
                else:
                    ctx = engine.local_context(self.graph, D, q.s)
                out.ctx = ctx
                out.res = run_algorithm(q.algo, ctx, q.k, time_budget=QUERY_TIME_BUDGET)
        out.seconds = time.perf_counter() - t0
        return out

    def run_pass(self, traced: bool) -> tuple:
        """One pass over the query list; checks run after the timed part."""
        self.tracer.enabled = traced
        if traced:
            install_layer_hooks(self.tracer)
        outcomes = []
        t0 = time.perf_counter()
        try:
            for q in self.wl.queries:
                self.next_cpu()
                try:
                    outcomes.append(self._execute(q, traced))
                except Exception:  # a failed query is counted, and the run goes on
                    outcomes.append(Outcome(q, 0.0, error=traceback.format_exc(limit=-3)))
        finally:
            wall = time.perf_counter() - t0
            self.tracer.enabled = False
            remove_hooks(self.tracer)
        for o in outcomes:
            self.check(o)
        return wall, outcomes

    # -- checks --------------------------------------------------------------

    def check(self, o: Outcome) -> None:
        self.attempted += 1
        errors = [o.error] if o.error else self._errors(o)
        if errors:
            self.failed += 1
            self.errors.extend(f"[{o.query.label}] {e}" for e in errors)

    def _errors(self, o: Outcome) -> List[str]:
        from repro.core import engine
        from repro.harness import run_algorithm

        q, res = o.query, o.res
        if res.extra.get("dnf"):
            return [f"DNF after {QUERY_TIME_BUDGET:.0f} s or call budget"]
        key = query_key(self.wl.dataset, q.algo, D, q.s, q.k)
        inv = self.inputs.inverse(self.wl.dataset)
        fp = fingerprint(res, inv)
        errors = check_expected(key, fp, self.expected)
        # Validity depends on the entries alone: check each distinct set once.
        seen = (key, fp["entries_sha"])
        if seen not in self._valid:
            invalid = check_valid(res.entries, self.local, D, q.s)
            if not invalid:
                self._valid.add(seen)
            errors += invalid
        if self.wl.spark:
            ref = self._reference.get(key)
            if ref is None:
                ref_ctx = engine.local_context(self.local, D, q.s)
                ref = self._reference[key] = (
                    ref_ctx, run_algorithm(q.algo, ref_ctx, q.k, time_budget=QUERY_TIME_BUDGET)
                )
            ref_ctx, ref_res = ref
            if canonical_entries(res.entries, None) != canonical_entries(ref_res.entries, None):
                errors.append("entries differ from the local engine's")
            if o.ctx is None:
                errors.append("run_dccs.main built no spark_context")
            else:
                if o.ctx.vertices != ref_ctx.vertices:
                    errors.append("survivors differ from the local engine's")
                if o.ctx.cores != ref_ctx.cores:
                    errors.append("per-layer cores differ from the local engine's")
        if self.wl.kind == "job":
            printed = [int(n) for n in re.findall(r"components=(\d+)", o.stdout)]
            want = [component_counts(self.local, C, L) if C else 0 for L, C in res.entries]
            if printed != want:
                errors.append(f"component counts {printed}, union-find gives {want}")
        return errors


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import_program()
    env = environment(args, wl)
    print("env " + json.dumps(env), flush=True)
    if wl.spark:
        configure_spark_launch()
    bench = Bench(wl, args.seed)
    report: Dict[str, object] = {"env": env}
    try:
        bench.setup()
        # Untimed warm-up. The JVM's JIT keeps speeding up the Spark driver for
        # several passes (12, 8.9, 8.4, 7.3, 7.6, 7.0 s on spark-job on a 4-core
        # VM), so Spark workloads get a second warm-up pass.
        for _ in range(2 if wl.spark else 1):
            bench.run_pass(traced=False)
        plain: List[float] = []
        traced: List[float] = []
        layer_rows: List[Dict[str, float]] = []
        per_query: List[List[Dict[str, object]]] = []
        t_end = time.perf_counter() + args.seconds
        while True:
            t_step = time.perf_counter()
            wall, outcomes = bench.run_pass(traced=False)
            plain.append(wall)
            per_query.append([{"query": o.query.label, "s": o.seconds} for o in outcomes])
            if args.trace:
                wall, outcomes = bench.run_pass(traced=True)
                traced.append(wall)
                spans = bench.tracer.take()
                bench.tracer.count_spark_jobs(spans)
                layer_rows.append(layer_metrics(spans, wall, bench.spec.n))
                report["queries"] = query_breakdown(spans, outcomes, bench.spec.n)
                report["spans"] = [dataclasses.asdict(sp) for sp in spans]
            now = time.perf_counter()
            if len(plain) >= MIN_PASSES and now + (now - t_step) > t_end:
                break
    finally:
        bench.close()

    setup = {k: median([r[k] for r in bench.setup_reps]) for k in bench.setup_reps[0]}
    if args.trace:
        metrics = {name: median([row[name] for row in layer_rows]) for name in layer_rows[0]}
        metrics["datasets.generate_s"] = setup["generate_s"]
        metrics["datasets.load_s"] = setup["load_s"]
        metrics["datasets.edges"] = len(bench.inputs.frames[wl.dataset])
        metrics["trace.overhead"] = median(traced) / median(plain) - 1.0
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "pass_s": median(plain),
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    report.update(setup_reps=bench.setup_reps, passes=plain, traced_passes=traced,
                  per_query=per_query, errors=bench.errors)
    write_report(wl.name, args, report)

    print(f"{wl.name}: {len(plain)} timed passes, median {median(plain):.3f} s; "
          f"{len(bench.setup_reps)} set-ups, median {setup['setup_s']:.3f} s")
    for err in bench.errors[:20]:
        print("FAILED " + err)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def query_breakdown(spans, outcomes, n_vertices: int) -> List[Dict[str, object]]:
    """Per-query layer figures of one traced pass (one ``query`` root each)."""
    roots = [sp for sp in spans if sp.name == "query"]
    out = []
    for root, o in zip(roots, outcomes):
        members = {root.sid}
        mine = []
        for sp in spans:  # spans are recorded in start order
            if sp.sid in members or sp.parent in members:
                members.add(sp.sid)
                mine.append(sp)
        row = layer_metrics(mine, root.dur, n_vertices)
        out.append({"query": o.query.label, "s": root.dur, **row})
    return out


def write_report(name: str, args, report: Dict[str, object]) -> None:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)
    if args.trace:
        for row in report.get("queries", []):
            print(
                f"  {row['query']:<16} {row['s']:8.3f} s  "
                f"ctx {row['context.s']:.3f}  pre {row['preprocess.s']:.3f}  "
                f"collect {row['collect.s']:.3f}  vd {row['vertex_deletion.s']:.3f}  "
                f"index {row['index.build_s']:.3f}  init {row['init_topk.s']:.3f}  "
                f"search {row['search.s']:.3f} (self {row['search.self_s']:.3f})  "
                f"dcc {row['dcc.s']:.3f}/{row['dcc.calls']:.0f}  topk {row['topk.s']:.3f}  "
                f"cc {row['components.s']:.3f}  jobs {row['spark.jobs']:.0f}"
            )


if __name__ == "__main__":
    sys.exit(main())
