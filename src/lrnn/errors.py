"""Error types shared across the package.

Every failure the CLI maps to an exit code lives here, so callers can
catch one family of exceptions instead of chasing module internals.
"""


class LrnnError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # Rebuild from the message and the attributes, without calling
        # `__init__`, whose arguments a subclass formats into the message.
        return type(self).__new__, (type(self), *self.args), self.__dict__


class ParseError(LrnnError):
    """Malformed template/example/query/parameter text.

    Carries the 1-based source position so the CLI can point at the
    offending character.
    """

    def __init__(self, message: str, source: str = "<input>", line: int = 0, col: int = 0):
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}" if line else f"{source}: {message}")


class RecursiveTemplateError(LrnnError):
    """Template predicates form a dependency cycle; carries one witness cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        pretty = " -> ".join(f"{p}/{a}" for p, a in self.cycle)
        super().__init__(f"recursive template, predicate cycle: {pretty}")


class CapacityError(LrnnError):
    """Grounding exceeded the configured budget: `what` names what was
    counted, model atoms plus rule instances, the substitutions of one
    join step or the neurons of one network."""

    def __init__(self, count: int, cap: int, what: str = "model atoms plus rule instances"):
        self.count = count
        self.cap = cap
        super().__init__(f"grounding exceeded its budget of {cap} {what} (reached {count})")


class EmptyInputError(LrnnError):
    """An activation was evaluated on an empty input list."""


class DivergenceError(LrnnError):
    """A parameter became non-finite during gradient descent."""

    def __init__(self, pid: str, epoch: int):
        self.pid = pid
        self.epoch = epoch
        super().__init__(f"parameter {pid!r} became non-finite in epoch {epoch}")


class AllRestartsFailedError(LrnnError):
    """Every training restart diverged; no usable parameters were produced."""
