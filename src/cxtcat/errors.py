"""Exception types shared across the package."""


class CxtcatError(Exception):
    """Base class for all package errors."""


class ValidationError(CxtcatError):
    """An axiom of a structure failed; carries a machine-readable witness.

    ``witness`` is a JSON-serializable dict with at least the keys
    ``law`` (name of the violated statement) and ``witness`` (the offending
    elements).
    """

    def __init__(self, message: str, *, law: str = "", witness=None):
        super().__init__(message)
        self.law = law
        self.witness = witness

    def report(self) -> dict:
        return {"ok": False, "error": str(self), "law": self.law, "witness": self.witness}


class SizeGuardExceeded(CxtcatError):
    """An exhaustive operation was asked to run beyond its size cap.

    ``size`` is the count reached when the operation stopped; an enumeration
    that stops early reports a size just past ``cap``, not the full count.
    """

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what}: size {size} exceeds guard {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class FormatError(CxtcatError):
    """Malformed input file (CXT, JSON document, or sequent text)."""
