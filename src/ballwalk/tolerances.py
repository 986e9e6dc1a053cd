"""Shared numeric tolerances, kept in one place for the library code."""

# Spheres and quadrature.
SPHERE_POINT_TOL = 1e-10    # kernel arguments must sit on the sphere this tightly
QUAD_MONOTONE_TOL = 1e-8    # allowed downward step of a provably monotone integral
INTEGRAL_IDENTITY_TOL = 1e-12  # exact integrand identities, shared quadrature nodes

# Harmonicity checks.
FD_STEP = 1e-3              # default central-difference step
