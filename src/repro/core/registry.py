"""Name → summary-class registry.

Registered names give every summary a stable identifier used by the
serialization envelope (:mod:`repro.core.codecs`), the benchmark
harness tables, and the examples.  Registration is explicit via the
:func:`register_summary` decorator applied at class-definition time.

Registration *hooks* let combinator layers react to every registration:
:mod:`repro.windows` installs one that derives a ``windowed.<name>``
variant for each base summary type, so lifting a new type to sliding
windows costs zero per-type code.  A hook is replayed over the classes
registered before it was installed, so installation order does not
matter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type, TypeVar

from .base import Summary
from .exceptions import ParameterError, SerializationError

__all__ = [
    "register_summary",
    "get_summary_class",
    "registered_names",
    "add_registration_hook",
]

_REGISTRY: Dict[str, Type[Summary]] = {}

#: hooks called as ``hook(name, cls)`` after every registration
_HOOKS: List[Callable[[str, Type[Summary]], None]] = []

S = TypeVar("S", bound=Type[Summary])


def register_summary(name: str) -> Callable[[S], S]:
    """Class decorator registering a summary under ``name``.

    The name must be unique across the library; re-registering the same
    class under the same name is a no-op (supports module reloads), but
    registering a *different* class under an existing name raises.
    """

    def decorator(cls: S) -> S:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"summary name {name!r} already registered to {existing.__name__}"
            )
        fresh = existing is None
        _REGISTRY[name] = cls
        cls.registry_name = name
        if fresh:
            for hook in list(_HOOKS):
                hook(name, cls)
        return cls

    return decorator


def add_registration_hook(
    hook: Callable[[str, Type[Summary]], None], replay: bool = True
) -> None:
    """Install ``hook`` to run after every future registration.

    With ``replay=True`` (the default) the hook is also invoked once for
    every class already registered, in sorted-name order — so a derived
    registry (e.g. the windowed variants) is complete regardless of
    import order.  Installing the same hook twice is a no-op.
    """
    if hook in _HOOKS:
        return
    _HOOKS.append(hook)
    if replay:
        for name in sorted(_REGISTRY):
            hook(name, _REGISTRY[name])


def get_summary_class(name: str) -> Type[Summary]:
    """Look up a registered summary class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SerializationError(
            f"unknown summary name {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_names(kind: Optional[str] = None) -> list[str]:
    """Sorted list of registered summary names, optionally by *kind*.

    ``kind=None`` (the default) lists everything; ``kind="base"`` lists
    only directly implemented summaries; ``kind="windowed"`` lists only
    the auto-derived ``windowed.<name>`` variants (any class whose
    ``summary_kind`` attribute is ``"windowed"``).
    """
    if kind is None:
        return sorted(_REGISTRY)
    if kind not in ("base", "windowed"):
        raise ParameterError(
            f"unknown summary kind {kind!r}; choose 'base' or 'windowed'"
        )
    return sorted(
        name
        for name, cls in _REGISTRY.items()
        if getattr(cls, "summary_kind", "base") == kind
    )
