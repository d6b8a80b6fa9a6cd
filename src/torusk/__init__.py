"""Maximum k-systems of simple closed curves on the torus.

A k-system is a collection of pairwise non-isotopic essential simple closed
curves with pairwise geometric intersection number at most k.  On the torus
these correspond to k-nice subsets of Z^2: sets of coprime pairs, one per
antipodal class, whose pairwise determinants are bounded by k.  This package
computes the maximum size N(k) of such a set exactly, together with the
rational LP bounds and certificates that make the answer checkable.

The headline entry points:

    search.max_size(k)         exhaustive maximum with witness
    closedform.pattern_or_table(k)   the closed-form answer
    lp.gamma(ell)              exact LP density bound gamma_ell
    bounds.check_threshold_3225()   the inequality sweeps behind the closed form
"""

from torusk.errors import BudgetError, VerificationError

__all__ = ["BudgetError", "VerificationError"]

__version__ = "0.1.0"
