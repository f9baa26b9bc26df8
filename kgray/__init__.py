"""kgray — a Ray-Data-native knowledge-graph construction engine.

Built from scratch around the computational semantics of the reference
NER toolkit (``/root/reference``: ``hmm_ner.py``, ``crf_ner.py``): count-based
HMM estimation, template-feature linear-chain CRF, Viterbi decoding over
BIO/BMES tags — re-expressed as NumPy kernels hosted inside Ray Data
actor pools, plus the surrounding KG pipeline (HTML→text extraction,
sentence split/tokenize, triple extraction, entity linking, salted-key
canonicalization, sort-partitioned Parquet graph materialization) that
the reference does not have.

Layout:
    kgray.kernels    pure NumPy/Python compute kernels (no Ray)
    kgray.functions  scalar/vectorized helper functions (html→text, hashing, text stats)
    kgray.sources    deterministic synthetic corpus generator + read helpers
    kgray.stages     Ray Data map_batches stages and actor classes
    kgray.pipelines  end-to-end Dataset pipelines (kg, dedup, ann, text, relational)
    kgray.state      checkpoint manifest (lineage records), model artifacts
"""

__version__ = "0.1.0"
