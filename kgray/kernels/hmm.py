"""Count-based HMM for sequence labeling, NumPy re-implementation.

Semantics replicate the reference trainer/decoder exactly
(``/root/reference/hmm_ner.py``), including its smoothing quirks, so a
model trained here predicts tag-for-tag identically to the reference
script on the same corpus:

* pi: log((count + 1e-10)/(N + T*1e-10)) for observed initial tags,
  **0.0 (log-prob 1) for tags never sentence-initial** (``hmm_ner.py:58,72-73``).
* A: add-1 within rows of observed prev-tags; entries for unseen
  next-tags get log(1/(rowtotal+T)); **rows of tags never observed as a
  predecessor stay all 0.0** (``hmm_ner.py:76-86``).
* B: dense add-1 over the full T x V matrix: log((c+1)/(count(tag)+V))
  (``hmm_ner.py:89-109``).
* Unknown words emit log(1/(count(tag)+V)) for every tag
  (``hmm_ner.py:206-210, 235-239``).
* Vocab/tag indexes are assigned in first-occurrence (insertion) order
  (``hmm_ner.py:37-39``); ties in the Viterbi argmax break toward the
  lower tag index (strict ``>`` in ``hmm_ner.py:247``), which NumPy's
  first-max ``argmax`` matches.

Counting is exposed as mergeable partials (:class:`HMMCounts`) so
training can run as per-batch partial aggregation inside
``map_batches`` with a driver-side merge — the distributed analogue of
the reference's single-pass loop (``hmm_ner.py:44-55``).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..constants import SMOOTHING_FACTOR

__all__ = ["HMMCounts", "HMMModel", "count_sentences", "merge_counts",
           "finalize_model", "train_hmm", "viterbi_batch"]


@dataclass
class HMMCounts:
    """Mergeable sufficient statistics (reference counters at hmm_ner.py:13-17).

    Word/tag first-occurrence order is tracked so the serial path can
    replicate the reference's insertion-order index assignment
    (hmm_ner.py:37-39).  Counter/dict iteration order in CPython is
    insertion order, so ``word_counts.keys()`` preserves it.
    """

    word_counts: Counter = field(default_factory=Counter)
    tag_counts: Counter = field(default_factory=Counter)
    initial_tag_counts: Counter = field(default_factory=Counter)
    transition_counts: dict = field(default_factory=lambda: defaultdict(Counter))
    emission_counts: dict = field(default_factory=lambda: defaultdict(Counter))
    num_sentences: int = 0


def count_sentences(tokens_per_sentence, tags_per_sentence, counts: HMMCounts | None = None) -> HMMCounts:
    """One counting pass over sentences (reference loop hmm_ner.py:22-55).

    Every token's emission is counted exactly once: the reference counts
    the first token in its init loop (hmm_ner.py:48) and positions >=1 in
    the pair loop (hmm_ner.py:55).
    """
    c = counts if counts is not None else HMMCounts()
    for words, tags in zip(tokens_per_sentence, tags_per_sentence):
        words = list(words)
        tags = list(tags)
        if not words:
            continue
        c.num_sentences += 1
        for w, t in zip(words, tags):
            c.word_counts[w] += 1
            c.tag_counts[t] += 1
        c.initial_tag_counts[tags[0]] += 1
        c.emission_counts[tags[0]][words[0]] += 1
        for i in range(len(words) - 1):
            c.transition_counts[tags[i]][tags[i + 1]] += 1
            c.emission_counts[tags[i + 1]][words[i + 1]] += 1
    return c


def merge_counts(a: HMMCounts, b: HMMCounts) -> HMMCounts:
    """Merge two partials (associative/commutative up to key order)."""
    a.word_counts.update(b.word_counts)
    a.tag_counts.update(b.tag_counts)
    a.initial_tag_counts.update(b.initial_tag_counts)
    for pt, nxt in b.transition_counts.items():
        a.transition_counts[pt].update(nxt)
    for t, ws in b.emission_counts.items():
        a.emission_counts[t].update(ws)
    a.num_sentences += b.num_sentences
    return a


@dataclass
class HMMModel:
    """Trained parameters as NumPy arrays (the reference's pickled dict
    of lists, hmm_ner.py:111-120, lifted to ndarray form)."""

    pi: np.ndarray            # [T] float64
    A: np.ndarray             # [T, T] float64
    B: np.ndarray             # [T, V] float64
    word_to_idx: dict
    tag_to_idx: dict
    idx_to_tag: list          # [T] tag strings
    tag_counts: np.ndarray    # [T] int64, count(tag) — for unknown-word emission
    V: int = 0

    def __post_init__(self):
        self.V = self.B.shape[1]
        # Unknown-word emission column: log(1/(count(tag)+V)) (hmm_ner.py:206-210).
        self.unk_emission = np.log(1.0 / (self.tag_counts + self.V)) if self.V else None

    # ------------------------------------------------------------------ io
    def save(self, path: str) -> None:
        np.savez(
            path if path.endswith(".npz") else path + ".npz",
            pi=self.pi, A=self.A, B=self.B, tag_counts=self.tag_counts,
            words=np.array(list(self.word_to_idx.keys()), dtype=object),
            tags=np.array(self.idx_to_tag, dtype=object),
        )

    @classmethod
    def load(cls, path: str) -> "HMMModel":
        z = np.load(path if path.endswith(".npz") else path + ".npz", allow_pickle=True)
        words = [str(w) for w in z["words"]]
        tags = [str(t) for t in z["tags"]]
        return cls(
            pi=z["pi"], A=z["A"], B=z["B"],
            word_to_idx={w: i for i, w in enumerate(words)},
            tag_to_idx={t: i for i, t in enumerate(tags)},
            idx_to_tag=tags, tag_counts=z["tag_counts"],
        )


def finalize_model(c: HMMCounts, word_order=None, tag_order=None) -> HMMModel:
    """MLE + smoothing normalization, bit-for-bit the reference math
    (hmm_ner.py:57-109).

    ``word_order``/``tag_order`` default to insertion order (reference
    parity); pass sorted orders for a canonical distributed build —
    predictions are identical except for exact float ties in the argmax.
    """
    words = list(word_order) if word_order is not None else list(c.word_counts.keys())
    tags = list(tag_order) if tag_order is not None else list(c.tag_counts.keys())
    word_to_idx = {w: i for i, w in enumerate(words)}
    tag_to_idx = {t: i for i, t in enumerate(tags)}
    V = len(words)
    T = len(tags)
    N = c.num_sentences
    if N == 0 or T == 0 or V == 0:
        raise ValueError("empty training data (reference emits a placeholder model, hmm_ner.py:60-70)")

    # pi (hmm_ner.py:58,72-73): defaults to 0.0 for unobserved initial tags.
    pi = np.zeros(T, dtype=np.float64)
    for tag, count in c.initial_tag_counts.items():
        pi[tag_to_idx[tag]] = math.log((count + SMOOTHING_FACTOR) / (N + T * SMOOTHING_FACTOR))

    # A (hmm_ner.py:76-86): rows only for observed prev tags; unseen rows stay 0.0.
    A = np.zeros((T, T), dtype=np.float64)
    for prev_tag, next_tags in c.transition_counts.items():
        i = tag_to_idx[prev_tag]
        total = sum(next_tags.values())
        row = np.full(T, math.log(1.0 / (total + T)), dtype=np.float64)
        for next_tag, count in next_tags.items():
            row[tag_to_idx[next_tag]] = math.log((count + 1) / (total + T))
        A[i] = row

    # B (hmm_ner.py:89-109): dense add-1 over T x V.
    tag_count_arr = np.array([c.tag_counts.get(t, 0) for t in tags], dtype=np.float64)
    B = np.zeros((T, V), dtype=np.float64)
    for t_idx, tag in enumerate(tags):
        denom = tag_count_arr[t_idx] + V
        row = np.full(V, math.log(1.0 / denom), dtype=np.float64)
        for w, cnt in c.emission_counts.get(tag, {}).items():
            row[word_to_idx[w]] = math.log((cnt + 1.0) / denom)
        B[t_idx] = row

    return HMMModel(pi=pi, A=A, B=B, word_to_idx=word_to_idx,
                    tag_to_idx=tag_to_idx, idx_to_tag=tags,
                    tag_counts=tag_count_arr.astype(np.int64))


def train_hmm(tokens_per_sentence, tags_per_sentence) -> HMMModel:
    """Serial trainer, exact reference semantics end-to-end (hmm_ner.py:9-124)."""
    return finalize_model(count_sentences(tokens_per_sentence, tags_per_sentence))


def _emission_matrix(words: list, model: HMMModel) -> np.ndarray:
    """[L, T] log-emission per token; unknown words use the smoothed
    column (hmm_ner.py:206-210)."""
    w2i = model.word_to_idx
    idx = np.fromiter((w2i.get(w, -1) for w in words), dtype=np.int64, count=len(words))
    E = np.empty((len(words), model.B.shape[0]), dtype=np.float64)
    known = idx >= 0
    if known.any():
        E[known] = model.B[:, idx[known]].T
    if (~known).any():
        E[~known] = model.unk_emission
    return E


def viterbi_decode(words: list, model: HMMModel) -> list:
    """Vectorized max-product DP, same recurrence and tie-breaking as the
    reference's per-cell loops (hmm_ner.py:165-268).  Returns tag strings."""
    L = len(words)
    if L == 0:
        return []
    E = _emission_matrix(words, model)
    T = model.A.shape[0]
    bp = np.zeros((L, T), dtype=np.int64)
    alpha = model.pi + E[0]
    for t in range(1, L):
        scores = alpha[:, None] + model.A        # [prev, cur]
        bp[t] = np.argmax(scores, axis=0)        # first-max == strict '>' loop
        alpha = scores[bp[t], np.arange(T)] + E[t]
    path = np.zeros(L, dtype=np.int64)
    path[L - 1] = int(np.argmax(alpha))
    for t in range(L - 2, -1, -1):
        path[t] = bp[t + 1, path[t + 1]]
    tags = model.idx_to_tag
    return [tags[i] for i in path]


def viterbi_batch(sentences: list, model: HMMModel) -> list:
    """Decode a whole batch of sentences, vectorized across sentences.

    Sentences are bucketed by length; each bucket runs one [N, T] DP so
    per-step NumPy overhead amortizes over the batch (the scale path for
    the flagship's tagger tasks).  Produces exactly the same tags as
    :func:`viterbi_decode` per sentence (asserted in tests); empty
    sentences pass through as empty tag lists (hmm_ner.py:153-155).
    """
    out: list = [None] * len(sentences)
    by_len: dict = {}
    for i, s in enumerate(sentences):
        L = len(s)
        if L == 0:
            out[i] = []
        else:
            by_len.setdefault(L, []).append(i)

    T = model.A.shape[0]
    tags = model.idx_to_tag
    w2i = model.word_to_idx
    A = model.A
    for L, idxs in by_len.items():
        N = len(idxs)
        # [N, L] word indices (-1 = unknown)
        widx = np.array([[w2i.get(w, -1) for w in sentences[i]] for i in idxs],
                        dtype=np.int64)
        E = np.empty((N, L, T), dtype=np.float64)
        known = widx >= 0
        if known.any():
            E[known] = model.B[:, widx[known]].T
        if (~known).any():
            E[~known] = model.unk_emission
        bp = np.zeros((N, L, T), dtype=np.int32)
        alpha = model.pi[None, :] + E[:, 0, :]
        for t in range(1, L):
            scores = alpha[:, :, None] + A[None, :, :]        # [N, prev, cur]
            bp[:, t, :] = np.argmax(scores, axis=1)
            alpha = np.take_along_axis(scores, bp[:, t, :][:, None, :].astype(np.int64),
                                       axis=1)[:, 0, :] + E[:, t, :]
        path = np.zeros((N, L), dtype=np.int64)
        path[:, L - 1] = np.argmax(alpha, axis=1)
        for t in range(L - 2, -1, -1):
            path[:, t] = bp[np.arange(N), t + 1, path[:, t + 1]]
        for row, i in enumerate(idxs):
            out[i] = [tags[j] for j in path[row]]
    return out
