#!/usr/bin/env python3
"""Flagship benchmark: web pages -> knowledge graph through ``run_kg``.

Run from the repository root:

    python3 perfbench/run.py --workload hmm_stream --seed 1 --seconds 30 --trace 0

One single-threaded process is the whole load: it generates the
workload's corpus from ``--seed`` with ``sources.corpus.generate_corpus``
(the program sees only the written corpus), starts a local Ray session
with one CPU per core in this process's affinity mask, and runs
``pipelines.kg.run_kg`` passes back to back (a closed loop with one
client) until ``--seconds`` are used.  Every pass is checked against
``serial_oracle_triples``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` passes, and the metrics
that ``BENCHMARK.json`` declares (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  A JSON artifact with provenance
stamps and every per-pass record goes to ``.bench_work/artifacts/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3                     # corpus + model builds per untraced run; setup_s takes the median
TAGGER = "hmm"                     # the tagger of every workload's pipeline
# the CRF model behind the kernels.crf row: small, so set-up stays short
CRF_TRAIN = {"crf_max_sentences": 100, "crf_epochs": 1}
RUN_BUDGET_S = 165.0               # every run ends well inside 180 s
PASS_DEADLINE_S = 75.0             # a pass slower than this is a stall

# files_per_group >= shards makes one partition group: a single Dataset.
# grouped_resume keeps the CLI default of 2 files per group; every group
# starts its own actor pools, so its groups are few to fit the run.
WORKLOADS = {
    "hmm_stream": {"pages": 3200, "shards": 16, "files_per_group": 16},
    "grouped_resume": {"pages": 1200, "shards": 8, "files_per_group": 2},
}


class Stall(Exception):
    """A pass that did not finish before its deadline."""


def _with_deadline(fn, seconds: float, what: str):
    """Run ``fn`` in a worker thread; raise ``Stall`` naming ``what`` if
    it has not returned after ``seconds``."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:        # re-raised in the caller's thread
            box["err"] = e

    t = threading.Thread(target=target, name="pass", daemon=True)
    t.start()
    t.join(seconds)
    if t.is_alive():
        raise Stall(f"{what}: no complete graph after {seconds:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def _tree_digest(root: str, suffix: str = "") -> str:
    """sha256 over the relative paths and contents of the files under
    ``root`` whose names end in ``suffix``."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(suffix)):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _source_digest() -> str:
    return _tree_digest(os.path.join(ROOT, "kgray"), ".py")[:16]


def _git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _read_graph(graph_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(graph_dir)
    rows = sorted(zip(t.column("subj").to_pylist(), t.column("pred").to_pylist(),
                      t.column("obj").to_pylist(), t.column("support").to_pylist(),
                      t.column("sample_urls").to_pylist()))
    full = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    spos = hashlib.sha256(json.dumps([r[:4] for r in rows]).encode()).hexdigest()
    return t, {(s, p, o): n for s, p, o, n, _ in rows}, full, spos


def _precision_recall(graph: dict, oracle: dict) -> tuple:
    """(P, R) of (subj, pred, obj) with the support required to match."""
    hit = sum(1 for k, n in graph.items() if oracle.get(k) == n)
    return hit / max(1, len(graph)), hit / max(1, len(oracle))


class Bench:
    def __init__(self, args):
        from perfbench import procs

        self.args = args
        self.name = args.workload
        self.wl = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.resume = self.wl["files_per_group"] < self.wl["shards"]
        self.t_start = time.perf_counter()
        self.dir = os.path.join(WORK, f"{self.name}-seed{args.seed}-{os.getpid()}")
        self.corpus = os.path.join(self.dir, "corpus0")
        self.models = os.path.join(self.dir, "models0")
        self.tree = procs.ProcessTree(os.getpid())
        self.attempted = 0
        self.failed = 0                    # passes that raised, stalled or failed a check
        self.failures: list = []
        self.passes: list = []             # records of measured, untraced passes
        self.digests: dict = {}            # graph shape -> full digest
        self.spo_one_group = None          # the warm-up's (subj,pred,obj,support) digest
        self.info: dict = {"workload": self.name, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "tagger": TAGGER, **self.wl}

    def fail(self, msg: str) -> None:
        print(f"perfbench: {self.name}: {msg}", file=sys.stderr, flush=True)
        self.failures.append(msg)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    # ------------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Corpus generation and model build (repeated; median taken),
        Ray init and one warm-up pass.  Returns setup_s."""
        from kgray.pipelines.kg import build_models
        from kgray.sources.corpus import generate_corpus

        gen_build, digests = [], set()
        for rep in range(1 if self.trace else SETUP_REPS):
            corpus = os.path.join(self.dir, f"corpus{rep}")
            models = os.path.join(self.dir, f"models{rep}")
            t0 = time.perf_counter()
            meta = generate_corpus(corpus, n_pages=self.wl["pages"], seed=self.args.seed,
                                   pages_per_shard=self.wl["pages"] // self.wl["shards"])
            if meta["n_shards"] != self.wl["shards"]:
                raise ValueError(f"{self.name}: pages must split evenly into shards")
            build_models(corpus, models, tagger=TAGGER)
            gen_build.append(time.perf_counter() - t0)
            digests.add(_tree_digest(corpus))
            if rep:
                shutil.rmtree(corpus)
                shutil.rmtree(models)
        if len(digests) != 1:
            self.fail("corpus generation is not byte-deterministic for this seed")
        t0 = time.perf_counter()
        self.info["ray_cpus"] = self._ray_init()
        ray_s = time.perf_counter() - t0
        self.oracle = self._oracle()
        t0 = time.perf_counter()
        self.run_pass("warmup", resume=False)
        warm_s = time.perf_counter() - t0
        self.info["setup_parts_s"] = {"gen_build": gen_build, "ray_init": ray_s,
                                      "warmup": warm_s}
        return ray_s + statistics.median(gen_build) + warm_s

    def _ray_init(self) -> int:
        import ray
        from ray.data import DataContext

        kw = {}
        tmp = os.path.join(WORK, "ray")
        if len(tmp) + 64 < 107:            # Ray's socket paths live under it
            kw["_temp_dir"] = tmp
        ray.init(num_cpus=len(os.sched_getaffinity(0)), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 2 ** 20,
                 # workers import kgray from this checkout, wherever it is
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}}, **kw)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        return int(ray.cluster_resources().get("CPU", 0))

    def _oracle(self) -> dict:
        """Serial-oracle triples, cached per (workload, seed, source).
        Not part of setup_s; timed for the baseline row when tracing."""
        from kgray.pipelines.kg import serial_oracle_triples
        from kgray.sources.corpus import GENERATOR_VERSION

        key = hashlib.sha256(json.dumps(
            [self.name, self.args.seed, self.wl, TAGGER,
             GENERATOR_VERSION, _source_digest()], sort_keys=True).encode()).hexdigest()[:16]
        self.cache_path = os.path.join(WORK, "oracle", f"{self.name}-seed{self.args.seed}-{key}.json")
        self.cached = {}
        if os.path.exists(self.cache_path):
            with open(self.cache_path) as f:
                self.cached = json.load(f)
        if self.cached and not self.trace:
            return {(s, p, o): n for s, p, o, n in self.cached["triples"]}
        t0 = time.perf_counter()
        triples = serial_oracle_triples(self.corpus, self.models, TAGGER)
        self.serial_s = time.perf_counter() - t0
        self.cached["triples"] = sorted([*k, n] for k, n in triples.items())
        return triples

    def save_cache(self) -> None:
        known = self.cached.setdefault("digests", {})
        for shape, digest in self.digests.items():
            if known.setdefault(shape, digest) != digest:
                self.fail(f"{shape} graph digest differs from an earlier run of this seed")
        os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
        tmp = self.cache_path + f".{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(self.cached, f)
        os.replace(tmp, self.cache_path)

    # ------------------------------------------------------------------ passes

    def _cycle(self, out: str, resume: bool) -> tuple:
        """Pages -> complete graph.  A resume cycle stops after half the
        groups, then resumes.  Returns (last run_kg stats, groups recomputed)."""
        from kgray.pipelines import kg

        kw = {"model_dir": self.models, "tagger": TAGGER}
        if not resume:
            return kg.run_kg(self.corpus, out, files_per_group=self.wl["shards"], **kw), 0
        fpg = self.wl["files_per_group"]
        first = kg.run_kg(self.corpus, out, files_per_group=fpg,
                          stop_after_groups=self.wl["shards"] // fpg // 2, **kw)
        if not first["groups_remaining"]:
            raise RuntimeError("the killed half-run left no group to resume")
        second = kg.run_kg(self.corpus, out, files_per_group=fpg, **kw)
        if second["groups_skipped"] != sorted(first["groups_run"]):
            raise RuntimeError("resume did not skip exactly the done groups")
        return second, len(set(first["groups_run"]) & set(second["groups_run"]))

    def run_pass(self, label: str, resume: bool) -> dict | None:
        """One checked pass; returns its record, or None if it failed."""
        out = os.path.join(self.dir, label)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        deadline = min(PASS_DEADLINE_S, self.remaining() - 5)
        self.tree.begin()
        t0 = time.perf_counter()
        try:
            stats, recomputed = _with_deadline(lambda: self._cycle(out, resume),
                                               deadline, f"{self.name} {label}")
        except Stall:
            raise
        except Exception as e:               # the pass failed; the run goes on
            self.tree.end()
            self.failed += 1
            self.fail(f"{label} raised {type(e).__name__}: {e}")
            return None
        wall = time.perf_counter() - t0
        cpu_s, rss_mb = self.tree.end()
        table, graph, full, spos = _read_graph(stats["graph_dir"])
        p, r = _precision_recall(graph, self.oracle)
        rec = {"label": label, "wall_s": wall, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
               "graph_precision": p, "graph_recall": r, "graph_rows": len(graph),
               "groups_recomputed": recomputed, "graph_digest": full, "out": out,
               "stats": stats, "table": table, "spo_digest": spos}
        shape = "resume" if resume else "one_group"
        bad = []
        if p != 1.0 or r != 1.0:
            bad.append(f"P={p:.6f} R={r:.6f} against the serial oracle")
        if recomputed:
            bad.append(f"the resume recomputed {recomputed} done groups")
        if self.digests.setdefault(shape, full) != full:
            bad.append("graph digest differs from an earlier pass of this seed")
        if resume and spos != self.spo_one_group:
            bad.append("(subj,pred,obj,support) differs from the one-group graph")
        if label == "warmup":
            self.spo_one_group = spos
        for msg in bad:
            self.fail(f"{label}: {msg}")
        self.failed += bool(bad)
        return None if bad else rec

    def measure(self) -> None:
        """Back-to-back untraced passes until ``--seconds`` are used."""
        t0 = time.perf_counter()
        while True:
            rec = self.run_pass(f"pass{len(self.passes)}", self.resume)
            if rec is not None:
                shutil.rmtree(rec["out"], ignore_errors=True)
                rec.pop("table")
                self.passes.append(rec)
            elif not self.passes:
                return
            typical = statistics.median(p["wall_s"] for p in self.passes)
            used = time.perf_counter() - t0
            if used + typical > self.args.seconds or self.remaining() < 3 * typical + 15:
                return

    def end_to_end(self, setup_s: float) -> dict:
        ps = self.passes
        return {
            "wall_s": statistics.median(p["wall_s"] for p in ps),
            "pages_per_s": statistics.median(self.wl["pages"] / p["wall_s"] for p in ps),
            "cpu_s": statistics.median(p["cpu_s"] for p in ps),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ps),
            "setup_s": setup_s,
            "graph_precision": min(p["graph_precision"] for p in ps),
            "graph_recall": min(p["graph_recall"] for p in ps),
        }

    def per_layer(self) -> dict:
        """One traced pass, then the in-process kernel rows."""
        from kgray.kernels import crf, hmm
        from kgray.pipelines.kg import build_models
        from perfbench import layers

        tracer = layers.OpTracer()
        with tracer.active():
            rec = self.run_pass("traced", self.resume)
        if rec is None:
            return {}
        rows = tracer.rows()
        rows.update(layers.phase_rows(rec["out"], rec["wall_s"], rec["stats"], rec["table"]))
        rows["state.manifest.append_s"] = tracer.append_s
        rows["trace.overhead_s"] = rec["wall_s"] - statistics.median(
            p["wall_s"] for p in self.passes)
        rows["baseline.serial_pages_per_s"] = self.wl["pages"] / self.serial_s
        self.info["traced_pass"] = {k: v for k, v in rec.items() if k != "table"}
        self.info["layer_map"] = layers.LAYER_MAP

        paths = build_models(self.corpus, os.path.join(self.dir, "models-kernels"),
                             tagger="both", **CRF_TRAIN)
        models = {"hmm": {lang: hmm.HMMModel.load(p) for lang, p in paths["hmm"].items()},
                  "crf": {lang: crf.CRFModel.load(p) for lang, p in paths["crf"].items()}}
        for m in models["crf"].values():
            m.compiled()
        rows.update(layers.kernel_rows(self.corpus, models))
        return rows

    # ------------------------------------------------------------------ run

    def stamp(self) -> dict:
        return {"time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "loadavg": os.getloadavg()}

    def run(self) -> dict:
        self.info["stamp_start"] = self.stamp()
        self.info.update(git_sha=_git_sha(), source_sha=_source_digest(),
                         cores=len(os.sched_getaffinity(0)))
        self.tree.start()
        setup_s = self.setup()
        self.measure()
        metrics = {}
        if self.passes:
            metrics = self.per_layer() if self.trace else self.end_to_end(setup_s)
        self.save_cache()
        return metrics

    def shutdown(self) -> None:
        """Stop the Ray session and every process this run started."""
        import ray

        if ray.is_initialized():
            _with_deadline(ray.shutdown, 30, "ray.shutdown")
            shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
        left = self.tree.kill_descendants()
        if left:
            print(f"perfbench: killed {len(left)} processes left after shutdown",
                  file=sys.stderr)
        self.tree.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def _declared(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    try:
        import kgray  # noqa: F401  (the program under test, from this checkout)
        declared = _declared(bool(args.trace))
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot run from {ROOT}: {e}", file=sys.stderr)
        return 2

    bench = Bench(args)
    metrics, stalled = {}, False
    try:
        metrics = bench.run()
    except Stall as e:
        stalled = True
        bench.failed += 1
        bench.fail(f"stalled: {e}")
    finally:
        bench.info["stamp_end"] = bench.stamp()
        if not stalled:
            bench.shutdown()
    missing = sorted(set(declared) - set(metrics))
    if metrics and missing:
        bench.fail(f"declared metrics not measured: {missing}")
    result = {
        "correct": not bench.failures and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared.items() if k in metrics},
    }
    os.makedirs(os.path.join(WORK, "artifacts"), exist_ok=True)
    art = os.path.join(WORK, "artifacts", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                       f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(art, "w") as f:
        json.dump({**bench.info, "result": result, "all_metrics": metrics,
                   "passes": bench.passes, "failures": bench.failures}, f, indent=1,
                  default=str)
    print(json.dumps(result), flush=True)
    if stalled:                # the stuck pass still holds a thread and Ray
        bench.tree.kill_descendants()
        shutil.rmtree(bench.dir, ignore_errors=True)
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
