"""Exception types shared across the package."""


class ChebotarevError(Exception):
    """Base class for all errors raised by this package."""


class NoConvergence(ChebotarevError):
    """An iteration hit its cap before meeting its tolerance."""


class InconsistentFactorization(ChebotarevError):
    """The recovered factors fail to reproduce the input polynomial."""


class PathTooClose(ChebotarevError):
    """An integration path passes too close to a branch point."""


class BranchJump(ChebotarevError):
    """Square-root continuation became ambiguous between two samples."""


class PowerSumViolation(ChebotarevError):
    """Level sets do not satisfy the required power-sum identities."""


class DegenerateSolution(ChebotarevError):
    """Solved points collided; the configuration is not admissible."""


class MatchingAmbiguity(ChebotarevError):
    """Arc chaining could not be disambiguated even after refinement."""


class NotATree(ChebotarevError):
    """A continuum graph expected to be a tree contains a cycle or is split."""
