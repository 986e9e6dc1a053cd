"""Shared numeric tolerances.

Library code and the test suite import these from one place so a tolerance
can never drift between an implementation and the check that pins it.
"""

# Spheres and quadrature.
SPHERE_POINT_TOL = 1e-10    # kernel arguments must sit on the sphere this tightly
QUAD_MONOTONE_TOL = 1e-8    # allowed downward step of a provably monotone integral
INTEGRAL_IDENTITY_TOL = 1e-12  # exact integrand identities, shared quadrature nodes

# Harmonicity checks.
FD_STEP = 1e-3              # default central-difference step
HARMONICITY_TOL = 1e-4      # |FD Laplacian| allowed for catalog members
KERNEL_HARMONICITY_TOL = 1e-3  # |FD Laplacian| allowed for the Poisson kernel in x
