"""Exception types raised across the package."""


class BalanceError(ValueError):
    """Base class for all domain errors."""


class ZeroPart(BalanceError):
    """A compositional part is exactly zero; zeros must be treated upstream."""


class DegenerateSplit(BalanceError):
    """A sign vector lacks a positive or a negative group."""


class RankDeficient(BalanceError):
    """More latent components requested than the data can support."""


class ConstantResponse(BalanceError):
    """The response variable has zero variance."""


class DimensionMismatch(BalanceError):
    """Array shapes are inconsistent with the fitted model or basis."""


class OneSidedLoading(BalanceError):
    """A loading vector has entries of one sign only, so no contrast exists."""


class Collinear(BalanceError):
    """The regression design matrix is rank deficient."""


class EmptyInput(BalanceError):
    """An operation received zero-length input."""


class NonBinary(BalanceError):
    """A classification vector contains values other than 0 and 1."""


class TooFewSamples(BalanceError):
    """Fewer samples than a basis build or a cross-validation layout needs."""


class NotPositiveDefinite(BalanceError):
    """A covariance matrix failed its positive definiteness check."""
