"""Simulation and numerical-verification toolkit for randomly perturbed
quadratic maps, the Markov process X_{n+1} = eps_{n+1} X_n (1 - X_n) on (0, 1).

Submodules
----------
quadmap      deterministic map family: orbits, multipliers, invariant interval
noise        parameter-noise mixtures, moments, stability hypothesis checks
engine       the Monte Carlo walk, occupation measures, ensembles
kernel       transition densities, minorization certificates, irreducibility
diagnostics  stability / extinction / cyclicity / small-noise verdicts
cli          batch command-line interface over a plain-text config
"""

from . import diagnostics, engine, kernel, noise, quadmap

__all__ = ["diagnostics", "engine", "kernel", "noise", "quadmap"]
__version__ = "0.1.0"
