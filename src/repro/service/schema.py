"""The schema kit: :class:`SpecError`, the :class:`Section` base and
its field checkers.

A ``Section`` is a dataclass that validates itself at construction —
the :class:`~repro.service.spec.ServiceSpec` sections, the scenario
sections and a query's :class:`~repro.service.planner.QueryOptions` —
and a checker maps ``(value, dotted path)`` to the normalised value or
a ``SpecError`` naming that path.  :func:`check_algorithm` and
:func:`check_rewriting` ask the registries, which hold the one rule for
which variant names are valid.  A leaf module: it imports no serving
code, so the planner can build on it without a cycle.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from ..matching.registry import matcher_name
from ..rewriting import make_rewriting

__all__ = [
    "Section", "SpecError", "check_algorithm", "check_bool",
    "check_fraction", "check_int", "check_optional", "check_rewriting",
    "check_section", "check_str", "check_tuple",
]


class SpecError(ValueError):
    """A schema violation, carrying the full dotted key path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


# ----------------------------------------------------------------------
# field checkers: (value, dotted path) -> normalised value, or SpecError
# ----------------------------------------------------------------------

def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def check_int(minimum=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise SpecError(path, f"must be >= {minimum}, got {value}")
        return value

    return check


def check_optional(check):
    """``None`` (= "not set") or whatever ``check`` accepts."""
    return lambda value, path: None if value is None else check(value, path)


def check_bool(value, path):
    if not isinstance(value, bool):
        raise SpecError(path, f"expected true/false, got {value!r}")
    return value


def check_fraction(value, path):
    """A number in [0, 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, f"expected a number, got {value!r}")
    value = float(value)
    if value < 0.0:
        raise SpecError(path, f"must be >= 0.0, got {value}")
    if value >= 1.0:
        raise SpecError(path, f"must be < 1.0, got {value}")
    return value


def check_str(choices=None, pattern=None, nonempty=False):
    def check(value, path):
        if not isinstance(value, str) or (nonempty and not value):
            kind = "a non-empty string" if nonempty else "a string"
            raise SpecError(path, f"expected {kind}, got {value!r}")
        if choices is not None and value not in choices:
            raise SpecError(
                path, f"must be one of {', '.join(choices)}; got {value!r}"
            )
        if pattern is not None and value and not pattern.match(value):
            raise SpecError(path, f"malformed value {value!r}")
        return value

    return check


def check_tuple(item, nonempty=False):
    """A list or tuple of ``item``-checked values, as a tuple; items
    fail with an indexed path (``workload.sizes[1]``)."""

    def check(value, path):
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {value!r}")
        if nonempty and not value:
            raise SpecError(path, "must not be empty")
        return tuple(
            item(v, f"{path}[{i}]") for i, v in enumerate(value)
        )

    return check


def check_section(cls):
    """A ``cls`` instance, or the mapping ``cls.from_dict`` accepts."""
    return lambda value, path: (
        value if isinstance(value, cls) else cls.from_dict(value)
    )


_variant_name = check_str(nonempty=True)


def check_algorithm(value, path):
    """A matcher name, as the registry's key (``"gql"`` -> ``"GQL"``)."""
    try:
        return matcher_name(_variant_name(value, path))
    except KeyError as exc:
        raise SpecError(path, exc.args[0]) from None


def check_rewriting(value, path):
    """A rewriting name the registry builds (``"ILF"``, ``"RND3"``)."""
    name = _variant_name(value, path)
    try:
        make_rewriting(name)
    except KeyError as exc:
        raise SpecError(path, exc.args[0]) from None
    return name


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------

class Section:
    """Base of every schema dataclass.

    ``_CHECKS`` maps each field to its checker and ``_PATH`` is the
    section's dotted prefix.  Construction runs every checker (lists
    normalise to tuples, ints to floats where a fraction is wanted), so
    an instance that exists is valid however it was built;
    :meth:`from_dict` additionally rejects unknown keys, and
    :meth:`to_dict` is its lossless inverse.
    """

    _PATH = ""
    _CHECKS: dict = {}

    def __post_init__(self) -> None:
        for name, check in self._CHECKS.items():
            value = check(getattr(self, name), _join(self._PATH, name))
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data):
        """Build + validate from a mapping (``None`` = all defaults);
        an unknown or misspelled key fails with its full dotted path,
        never a silent default."""
        where = cls._PATH or "<config>"
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise SpecError(
                where, f"expected a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._CHECKS), key=str)
        if unknown:
            raise SpecError(_join(cls._PATH, str(unknown[0])), "unknown key")
        for fld in fields(cls):
            if (
                fld.default is MISSING
                and fld.default_factory is MISSING
                and fld.name not in data
            ):
                raise SpecError(_join(cls._PATH, fld.name), "required")
        return cls(**data)

    def to_dict(self) -> dict:
        """A fully-populated nested dict (tuples emitted as lists).
        ``None`` means "not set" and is dropped, so the emitted YAML
        stays in the dialect and reloads identically."""
        out = {}
        for name in self._CHECKS:
            value = getattr(self, name)
            if isinstance(value, Section):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                out[name] = value
        return out
