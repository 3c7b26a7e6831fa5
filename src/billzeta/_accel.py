"""Kernel-path flag, kept for callers that record which path a run took.

Every numeric loop in billzeta is plain numpy over batches; there is no
JIT path, so the flag is always ``False``.
"""

NUMBA_ENABLED = False
