"""Harmonic functions on the unit ball meet Brownian exit times.

Numerics for the full chain: surface-area quadrature on (m-1)-spheres,
Poisson-kernel harmonic extension, first-exit simulation (discretized and
exact), the martingale maximal inequality, and boundary-limit experiments
for harmonic functions with integrable boundary growth.  The modules are the
interface (``ballwalk.cli``, ``ballwalk.harmonic``, ...); the package root
exports nothing and imports nothing.
"""
