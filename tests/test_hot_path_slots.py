"""Hot-path classes carry no per-instance ``__dict__``.

Classes in ``repro.simulation``, ``repro.networking`` and ``repro.control``
are created or touched per packet or per epoch, so each declares
``__slots__`` (or uses ``@dataclass(slots=True)``).  One slot-less class
anywhere in the MRO gives every instance a ``__dict__`` again, which
``cls.__dictoffset__ != 0`` shows for the class as it is actually built,
bases from other packages included.  Enums, exceptions, Protocols and
TypedDicts are exempt: a ``__dict__`` is inherent or harmless there.

The check also runs against slot-less classes planted with ``monkeypatch``,
so a check that stops seeing its fault fails here too.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
from typing import Protocol, is_typeddict

import pytest

HOT_PACKAGES = ("repro.simulation", "repro.networking", "repro.control")

#: Hot-path classes allowed a ``__dict__``, each with the reason.
DICT_ALLOWED = {
    "repro.simulation.seeding.HashedSeed": (
        "declares __slots__, but its base numpy.random.bit_generator."
        "ISeedSequence declares none, so instances get a __dict__ from the "
        "base; one is built per seeded stream at network build, never per "
        "packet"
    ),
}


def _hot_classes(packages=HOT_PACKAGES):
    """Every class defined at module level in a hot-path module, by name."""
    classes = {}
    for package in packages:
        root = importlib.import_module(package)
        modules = [root] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(root.__path__, package + ".")
        ]
        for module in modules:
            for obj in vars(module).values():
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    classes[f"{module.__name__}.{obj.__name__}"] = obj
    return classes


def _exempt(cls):
    return (
        issubclass(cls, (enum.Enum, BaseException))
        or Protocol in cls.__bases__
        or is_typeddict(cls)
    )


def _classes_with_dict(packages=HOT_PACKAGES):
    return sorted(
        name
        for name, cls in _hot_classes(packages).items()
        if cls.__dictoffset__ != 0 and not _exempt(cls) and name not in DICT_ALLOWED
    )


@pytest.mark.parametrize("package", HOT_PACKAGES)
def test_hot_path_classes_have_no_instance_dict(package):
    assert _hot_classes((package,)), f"no classes found under {package}"
    assert _classes_with_dict((package,)) == []


def test_dict_exemptions_are_still_needed():
    classes = _hot_classes()
    for name in DICT_ALLOWED:
        assert "__slots__" in vars(classes[name]), name
        assert classes[name].__dictoffset__ != 0, f"{name} needs no exemption"


def test_slots_check_catches_slot_less_classes(monkeypatch):
    import repro.simulation.radio as radio

    class Plain:
        pass

    class SlottedOnPlainBase(Plain):
        __slots__ = ("x",)

    for cls in (Plain, SlottedOnPlainBase):
        cls.__module__ = radio.__name__
        monkeypatch.setattr(radio, cls.__name__, cls, raising=False)
    assert _classes_with_dict() == [
        "repro.simulation.radio.Plain",
        "repro.simulation.radio.SlottedOnPlainBase",
    ]
