"""Guarded imports for optional (dev-extra) dependencies.

The core package depends on numpy alone; everything else — networkx,
scipy, the dev tooling — is at most a convenience that code must
*gate*, not require.  This module is the one place that gating lives,
so every soft import fails the same way: with an error that names the
missing distribution and the extra that installs it.

Usage::

    from repro._optional import optional_module

    nx = optional_module("networkx")
    if nx is not None:
        ...                                    # networkx cross-check
    else:
        ...                                    # in-repo fallback

    # Or, for features that cannot degrade:
    nx = require_module("networkx", feature="the networkx converters")
"""

from __future__ import annotations

import importlib
from types import ModuleType

__all__ = ["MissingDependencyError", "optional_module", "require_module"]

#: distribution (pip name) and install extra per optional top-level module.
_EXTRAS: dict[str, tuple[str, str]] = {
    "scipy": ("scipy", "dev"),
    "networkx": ("networkx", "dev"),
    "hypothesis": ("hypothesis", "dev"),
    "pytest": ("pytest", "dev"),
}

#: memoized import results; ``False`` marks a known-missing module.
_CACHE: dict[str, ModuleType | None] = {}


class MissingDependencyError(ImportError):
    """An optional dependency is required for the requested feature."""


def optional_module(name: str) -> ModuleType | None:
    """Import ``name`` if installed, else return ``None`` (memoized).

    Only :class:`ImportError` for the module itself (or its parents) is
    swallowed — a broken installation that raises anything else still
    surfaces.  Pass dotted names (``"scipy.spatial"``) to get the
    submodule directly.
    """
    cached = _CACHE.get(name, False)
    if cached is not False:
        return cached
    try:
        module: ModuleType | None = importlib.import_module(name)
    except ImportError:
        module = None
    _CACHE[name] = module
    return module


def require_module(name: str, feature: str | None = None) -> ModuleType:
    """Import ``name`` or raise a :class:`MissingDependencyError` that
    names the distribution and the extra installing it.

    Args:
        name: dotted module path to import.
        feature: optional human description of what needed it, included
            in the error so the user knows what they asked for.

    Raises:
        MissingDependencyError: if the module is not installed.
    """
    module = optional_module(name)
    if module is not None:
        return module
    top = name.partition(".")[0]
    dist, extra = _EXTRAS.get(top, (top, "dev"))
    wanted = f" (needed for {feature})" if feature else ""
    raise MissingDependencyError(
        f"optional dependency {dist!r} is not installed{wanted}; "
        f'install it with `pip install "repro[{extra}]"` or `pip install {dist}`'
    )
