"""Rank-aware matrix completion for hybrid mmWave channel estimation.

Phase I completes masked pilot observations as a sum of l1-regularised
rank-one factors whose count adapts to the data; Phase II recovers
sparse angular gains with a sparsity budget derived from the Phase-I
rank.  A Monte-Carlo harness, estimator ablations and CSV/.npy
exports round out the package.  Import from the submodules, e.g.
``from ramc.harness import run_sweep``.
"""

__version__ = "0.1.0"
