"""Hole-search kernel selection.

The compiled kernel (_fastcore, hand-written C against the CPython API) is
used when it was built, which `pip install` does when a C compiler is
present; otherwise the pure-Python kernel (_pycore) takes over with the
same stream and the same node counts. Tests and benchmarks that need one
kernel in particular import it directly.
"""

from __future__ import annotations

try:
    from . import _fastcore as _impl
except ImportError:
    from . import _pycore as _impl  # type: ignore[no-redef]

find_holes = _impl.find_holes
IMPLEMENTATION = _impl.IMPLEMENTATION

__all__ = ["find_holes", "IMPLEMENTATION"]
