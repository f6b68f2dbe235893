"""Exact computations around symmetric powers of tautological bundles.

The package is organized by what each part computes:

* :mod:`hilbtaut.combinat` -- compositions and partitions, the label sets
  of multi-index maps, and the symmetric-group orbits (a representative
  and a size each) and stabilizers of those maps, each map held as the
  tuple of its image bitmasks.
* :mod:`hilbtaut.polyjet` -- the monomials of the coordinate ring of n
  points of the affine plane, up to a degree cap, and the jet
  functionals cutting out powers of the pairwise diagonal ideals.
* :mod:`hilbtaut.tautops` -- higher difference operators, the stacked
  kernel systems cutting out symmetric-power sections, and the graded
  dimension oracle they are checked against.
* :mod:`hilbtaut.toeplitz` -- the banded binomial Toeplitz matrices whose
  nondegeneracy drives the two-point filtration argument.
* :mod:`hilbtaut.symrep` -- symmetric-group character arithmetic for
  exterior powers, and explicit tensor verification of the
  (k-1)-symmetrization identity.
* :mod:`hilbtaut.rroch` -- surface lattice models, Riemann-Roch for
  twisted symmetric powers of the cotangent bundle as one integer
  quadratic in intersection numbers, and the closed Euler-characteristic
  formulas built on it.
* :mod:`hilbtaut.cli` -- command-line front end.

Everything numeric is exact: integers and fractions only, no floats.
"""

__version__ = "0.1.0"
