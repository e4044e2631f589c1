"""Exception types shared across the package."""


class CoxeterError(Exception):
    """Base class for all library errors."""


class InvalidSpec(CoxeterError):
    """The group description is malformed."""


class CapExceeded(CoxeterError):
    """Enumeration would exceed the element cap (group too large or infinite)."""


class NotAClassEdge(CoxeterError):
    """A step that had to stay inside a recoil class left it."""


class FiberInconstant(CoxeterError):
    """Fiber counts of a covering instance disagree.  Must never fire."""


class ClassInconstant(CoxeterError):
    """Group-algebra product counts differ inside one recoil class.  Must never fire."""


class OracleMismatch(CoxeterError):
    """Covering-degree expansion and the convolution oracle disagree.  Must never fire."""


class OrderViolation(CoxeterError):
    """A relation loop acted with a forbidden order.  Must never fire."""


class InvariantViolation(CoxeterError):
    """A structural theorem the construction relies on failed.  Must never fire."""
