"""Long-time asymptotics of the viscous p-system.

Builds the self-similar Burgers profile, the long-tailed correction profiles
and the exact Fourier semigroup, runs a pseudospectral simulation of the
full system, and verifies the predicted decay rates and tail exponents.
"""

__version__ = "0.1.0"
