"""Ray Data ``map_batches`` stages and actor classes.

Stateless transforms are plain functions (Arrow in / Arrow out,
``batch_format="pyarrow"``); stateful stages (models, alias dicts,
embedding matrices) are callable classes with setup in ``__init__``,
held once per worker process (``kg.loaded_chain``) or run as actor
pools — the lift of the reference's load-pickle-then-loop pattern
(``hmm_ner.py:130-156``).
"""
