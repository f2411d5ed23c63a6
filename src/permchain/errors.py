"""Exception hierarchy shared across the package."""


class PermchainError(Exception):
    """Base class for all library errors."""


class GroupTooLarge(PermchainError):
    pass


class NotNormal(PermchainError):
    pass


class NotComparable(PermchainError):
    pass


class UnknownCatalogName(PermchainError):
    pass


class FieldMismatch(PermchainError):
    pass


class NotSubspace(PermchainError):
    pass


class NotSubmodule(PermchainError):
    pass


class IncompatibleHandles(PermchainError):
    pass


class NotNested(PermchainError):
    pass


class PGroupOnly(PermchainError):
    pass


class NotEndotrivial(PermchainError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotChainMap(PermchainError):
    pass


class UnlabeledComponent(PermchainError):
    pass


class NotUnitDimension(PermchainError):
    pass


class NonCharacterTrace(PermchainError):
    pass


class TooManyClasses(PermchainError):
    pass


class NotAbelian(PermchainError):
    pass


class BadIndex(PermchainError):
    pass


class NotPRankOne(PermchainError):
    pass


class ConstructionFailure(PermchainError):
    pass


class ParseError(PermchainError):
    """Raised on malformed literal input; carries a source location string."""

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
