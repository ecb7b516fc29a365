"""Validated numerics for the red-coral population map: interval
arithmetic, a constructive implicit function theorem, certified
pseudo-arclength continuation, and bifurcation certificates."""

__version__ = "0.1.0"
