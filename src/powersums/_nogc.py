"""A pause of the cyclic garbage collector for the certificate entry points."""

from __future__ import annotations

import functools
import gc
from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


def nogc(fn: F) -> F:
    """Run ``fn`` with the cyclic garbage collector disabled.

    The pause relies on certificate data being acyclic: certificates,
    placements, regions, rects and ``QuadExt`` values hold no reference
    cycles, so the collections that building and checking them would
    trigger find nothing.  Collection is deferred, not lost; the next
    collection after the call reclaims any cyclic garbage it left.

    The pause is process-wide: no thread collects while it lasts.  The
    collector is re-enabled on return or exception only if it was enabled
    on entry, so nested and already-paused callers are left as they were.
    """

    @functools.wraps(fn)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]
