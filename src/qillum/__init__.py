"""Quantum illumination with multiplexed click photodetection.

Closed-form click statistics for heralded two-mode squeezed vacuum and
coherent probes, a sequential Bayesian Monte-Carlo detection simulator, and a
truncated-Fock brute-force oracle that cross-validates every closed form.
"""
