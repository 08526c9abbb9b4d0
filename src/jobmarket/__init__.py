"""Exact engine for job-matching markets with transferable salaries.

Computes efficient matchings and pivot (externality) payments over exact
rationals, classifies firm valuations (weak substitutes, submodular,
strong substitutes, gross substitutes), decides individual rationality,
firing-proofness, and core stability of the pivot outcome, and constructs
verified adversarial disutility profiles for firms whose valuations fall
outside those classes.

Import from the submodules (`jobmarket.model`, `jobmarket.pivot`, ...);
the package root exports nothing else.
"""

__version__ = "0.1.0"
