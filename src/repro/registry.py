"""One open name registry behind the method, strategy, mitigation and
benchmark-family axes.

Each axis keeps a module-level :class:`Registry` instance and exports its
bound methods under the axis's public names (``register_method``,
``get_strategy``, ``available_mitigations``, ...), so a component
registered from user code (no core edits) resolves everywhere a built-in
does::

    from repro.methods import InitializationMethod, register_method

    @register_method
    class MyMethod(InitializationMethod):
        name = "my_method"
        description = "one line for `repro methods`"
        ...

Lookups of unknown names fail with a did-you-mean suggestion naming the
registered entries (via the shared :mod:`repro.naming` helper).  The
benchmark-family and mitigation axes also accept ``name:key=value,...``
specs; :func:`parse_params` is the one parser of their parameter lists.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from .naming import did_you_mean

T = TypeVar("T")


class Registry(Generic[T]):
    """Name -> instance map for one axis, in registration order.

    Args:
        kind: Singular noun used in messages (``"method"``).
        base: The class every entry must be an instance of.
        plural: Plural noun for listings (default ``kind + "s"``).
    """

    def __init__(self, kind: str, base: type, plural: str | None = None):
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self.base = base
        self._entries: dict[str, T] = {}

    def register(self, obj=None, *, replace: bool = False):
        """Register a ``base`` subclass or instance.

        Usable as a bare decorator (``@register``), a parameterized one
        (``@register(replace=True)``), or a plain call
        (``register(instance)``).  Classes are instantiated with no
        arguments; pre-built instances register as-is (use this for
        parameterized variants).  Returns the decorated object unchanged.
        """
        def _register(item):
            instance = item() if isinstance(item, type) else item
            if not isinstance(instance, self.base):
                raise TypeError(
                    f"register_{self.kind} needs a subclass or instance of "
                    f"{self.base.__name__}, got {item!r}")
            name = instance.name
            if not name:
                raise ValueError(
                    f"{type(instance).__name__} has no `name`; set the class "
                    f"attribute before registering")
            if name in self._entries and not replace:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"({self._entries[name]!r}); pass replace=True to "
                    f"override")
            self._entries[name] = instance
            return item

        if obj is None:
            return _register
        return _register(obj)

    def unregister(self, name: str) -> None:
        """Remove a registered entry (primarily for test cleanup)."""
        self._entries.pop(name, None)

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order (built-ins first)."""
        return tuple(self._entries)

    def snapshot(self) -> dict[str, T]:
        """Name -> instance copy of the registry."""
        return dict(self._entries)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def get(self, name: str) -> T:
        """Look up an entry; ``KeyError`` with a did-you-mean hint."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}"
                f"{did_you_mean(name, self._entries)}; registered "
                f"{self.plural}: {list(self._entries)}") from None


def _parse_value(text: str):
    if text.lower() in ("true", "false"):  # bool-ish flags (weighted=...)
        return int(text.lower() == "true")
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def parse_params(text: str, spec: str, what: str) -> dict:
    """Parse the ``key=value,...`` part of a ``name:key=value,...`` spec.

    Values parse as int, then float; ``true``/``false`` become 1/0 and
    anything else stays a string.

    Args:
        text: The parameter list (after the ``:``).
        spec: The whole spec, quoted in errors.
        what: The spec's kind in errors (``"benchmark"``).
    """
    params: dict = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key.strip():
            raise ValueError(
                f"bad {what} parameter {item.strip()!r} in {spec!r}; "
                f"expected key=value")
        params[key.strip()] = _parse_value(value.strip())
    return params
