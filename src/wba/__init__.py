"""Exact computational engine for the walled Brauer algebra.

Constructs the complete system of primitive pairwise orthogonal idempotents by
consecutive evaluation of baxterized factor products, and certifies every
claim (idempotency, orthogonality, completeness, Jucys-Murphy spectra,
Yang-Baxter identities, exponent structure) in exact rational-function
arithmetic over Q(d).

Import each layer from its own module (wba.scalars, wba.diagrams,
wba.algebra, wba.tableaux, wba.fusion, wba.verify, wba.cli); the package root
imports none of them, so a process loads only the layers it uses.
"""
