"""fraylab: exact computations with curved complexes of singular Soergel bimodules.

The package builds the four frayed-projector variants (finite / deformed
finite / infinite / deformed infinite) and the C_n ladder as curved
complexes over presented rings, and reproduces, at desk scale, the q,t,a
Poincare series of the colored-unknot homologies attached to the
projectors.  The symmetric-polynomial families, Gaussian elimination with
SDR data and Hochschild homology feed those computations.
"""

__version__ = "0.1.0"
