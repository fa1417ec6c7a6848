"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1, OSError -> 2,
CapError -> 3; a run out of memory (MemoryError) also exits 3.
"""


class ValidationError(ValueError):
    """An input violates a documented invariant (shape, range, schema)."""


class PinnedElementError(ValidationError):
    """Attempt to mutate a lattice element whose value is fixed by axiom."""


class CapError(RuntimeError):
    """A size or time cap refuses the requested computation."""
