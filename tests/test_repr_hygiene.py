"""Dataclass reprs never embed an ndarray payload.

A dataclass's generated ``__repr__`` formats every field declared with
``repr=True``.  An array there turns a log line, an f-string, an
exception message or asyncio's own task repr into a dump of the payload:
a gathered list of ``GatewayResponse`` frames once stalled the gateway
for about six seconds.  The test walks every dataclass defined in
``repro`` and fails on any field whose type mentions ``np.ndarray`` and
that the generated repr includes.  The accepted remedies are
``field(repr=False)``, a summary ``__repr__`` on the class, and
``@dataclass(repr=False)``.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import pytest

import repro


def _mentions_ndarray(annotation) -> bool:
    """Whether a resolved type (or an unresolved annotation string) names ndarray."""
    if isinstance(annotation, str):
        return "ndarray" in annotation
    if (typing.get_origin(annotation) or annotation) is np.ndarray:
        return True
    return any(_mentions_ndarray(arg) for arg in typing.get_args(annotation))


def _has_generated_repr(cls) -> bool:
    """Whether the class's own ``__repr__`` is the one ``@dataclass`` wrote.

    ``@dataclass`` builds its methods with ``exec``, so their code has no
    source file; a ``__repr__`` written in the class body has one.
    """
    code = getattr(inspect.unwrap(cls.__dict__.get("__repr__")), "__code__", None)
    return code is not None and code.co_filename == "<string>"


def leaking_fields(cls) -> List[str]:
    """Names of the ndarray fields that ``cls``'s generated repr prints."""
    if not _has_generated_repr(cls):
        return []
    try:
        hints = typing.get_type_hints(cls)
    except (NameError, TypeError):
        hints = {}
    return [
        each.name
        for each in dataclasses.fields(cls)
        if each.repr and _mentions_ndarray(hints.get(each.name, each.type))
    ]


def repro_dataclasses() -> List[type]:
    """Every dataclass defined at module level anywhere in ``repro``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                found[value.__qualname__, value.__module__] = value
    return [found[key] for key in sorted(found)]


def test_no_repro_dataclass_prints_an_ndarray():
    classes = repro_dataclasses()
    # The walk must see the package, not silently find nothing.
    assert len(classes) > 80
    leaks = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in classes
        for name in leaking_fields(cls)
    ]
    assert leaks == [], (
        "ndarray fields in generated dataclass reprs (mark them "
        "field(repr=False) or give the class a summary __repr__): "
        + ", ".join(leaks)
    )


# --- the check on each leaking and each safe pattern ----------------------


@dataclass
class Frame:
    """A frame whose pixel payload the generated repr would dump."""

    name: str
    pixels: np.ndarray
    depth: Optional[np.ndarray] = None


@dataclass
class Binned:
    """Container types holding arrays leak too."""

    tiles: Dict[int, np.ndarray]


@dataclass
class Unresolvable:
    """A forward reference that cannot resolve falls back to the string."""

    payload: "np.ndarray"
    other: "NotDefinedAnywhere"  # noqa: F821


@dataclass
class OptedOutFrame:
    """Array payload opted out of the generated repr."""

    name: str
    pixels: np.ndarray = field(repr=False)
    depth: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass
class Cloud:
    """A summary __repr__ keeps the payload out of logs."""

    positions: np.ndarray

    def __repr__(self) -> str:
        return f"Cloud(num_points={len(self.positions)})"


@dataclass(repr=False)
class Raw:
    """Repr generation disabled entirely."""

    data: np.ndarray


@dataclass
class Scalar:
    """Non-array fields are never flagged."""

    width: int
    name: str


#: leaking class -> the fields the check must name, in field order.
LEAKING = {
    Frame: ["pixels", "depth"],
    Binned: ["tiles"],
    Unresolvable: ["payload"],
}


@pytest.mark.parametrize("cls", list(LEAKING), ids=lambda cls: cls.__name__)
def test_leaking_patterns_are_flagged(cls):
    assert leaking_fields(cls) == LEAKING[cls]


@pytest.mark.parametrize(
    "cls", [OptedOutFrame, Cloud, Raw, Scalar], ids=lambda cls: cls.__name__
)
def test_safe_patterns_are_clean(cls):
    assert leaking_fields(cls) == []
