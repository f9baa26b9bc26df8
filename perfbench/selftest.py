#!/usr/bin/env python3
"""Self-test of the benchmark itself (no Ray needed).

Run from the repository root:

    python3 perfbench/selftest.py

1. Corpus generation is byte-deterministic per seed: two corpora from
   one seed hash equal, and another seed gives other pages.
2. Each kernel row measures its own layer: a slowdown injected by
   wrapper into one kernel's public function (a busy wait tripling its
   CPU time) moves that kernel's row by at least a third, and no other
   kernel row by more than a fifth.  Rates are compared in adjacent
   plain/slowed pairs, so a change in the machine's speed cancels.

Exits non-zero, naming the failed check, if either does not hold.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MOVED = 0.67            # the injected row must fall below this share of its base
STILL = 0.20            # every other row must stay within this share of its base


@contextlib.contextmanager
def slowdown(owner, name: str, factor: float = 1.0):
    """Make ``owner.name`` burn ``factor`` times its own CPU time extra
    (a busy wait, so per-CPU-second rates see it)."""
    orig = getattr(owner, name)

    def slow(*a, **kw):
        t0 = time.thread_time()
        out = orig(*a, **kw)
        until = time.thread_time() + factor * (time.thread_time() - t0)
        while time.thread_time() < until:
            pass
        return out

    setattr(owner, name, slow)
    try:
        yield
    finally:
        setattr(owner, name, orig)


def _paired_ratio(work, units: int, owner, fn: str, pairs: int = 7) -> float:
    """Median over adjacent (plain, slowed) measurements of slowed / plain
    rate: pairing cancels drift in the speed of a shared machine."""
    from perfbench import layers

    ratios = []
    for _ in range(pairs):
        plain = layers.per_cpu_s(work, units, reps=1, min_cpu_s=0.1)
        with slowdown(owner, fn, factor=2.0):
            slowed = layers.per_cpu_s(work, units, reps=1, min_cpu_s=0.1)
        ratios.append(slowed / plain)
    return statistics.median(ratios)


def main() -> int:
    sys.path.insert(0, ROOT)
    from kgray.kernels import crf, hmm
    from kgray.pipelines.kg import build_models
    from kgray.sources.corpus import generate_corpus
    from perfbench import layers
    from perfbench.run import CRF_TRAIN, _tree_digest

    failures = []
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        digests = []
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            generate_corpus(os.path.join(work, name), n_pages=400, seed=seed,
                            pages_per_shard=25)
            digests.append(_tree_digest(os.path.join(work, name)))
        if digests[0] != digests[1]:
            failures.append("two corpora from one seed differ")
        if digests[0] == digests[2]:
            failures.append("two seeds gave the same corpus")
        print(f"generation: seed 5 twice {'equal' if digests[0] == digests[1] else 'DIFFER'}, "
              f"seed 6 {'differs' if digests[0] != digests[2] else 'EQUAL'}")

        corpus = os.path.join(work, "a")
        models_dir = os.path.join(work, "models")
        paths = {t: build_models(corpus, models_dir, tagger=t, **CRF_TRAIN)[t]
                 for t in ("hmm", "crf")}
        models = {"hmm": {k: hmm.HMMModel.load(p) for k, p in paths["hmm"].items()},
                  "crf": {k: crf.CRFModel.load(p) for k, p in paths["crf"].items()}}
        for m in models["crf"].values():
            m.compiled()

        work = layers.kernel_work(corpus, models, n_pages=100)
        for row, (owner, fn) in layers.KERNEL_ROWS.items():
            target = f"{owner.__name__.rsplit('.', 1)[-1]}.{fn}"
            moved = {other: _paired_ratio(w, units, owner, fn)
                     for other, (w, units) in work.items()}
            for other, ratio in moved.items():
                ok = ratio < MOVED if other == row else abs(ratio - 1) <= STILL
                if not ok:
                    failures.append(f"slowing {target} moved {other} to {ratio:.2f}x")
            print(f"slow {target:32s} -> " + "  ".join(
                f"{k.split('.')[-2]}={v:.2f}" for k, v in moved.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
