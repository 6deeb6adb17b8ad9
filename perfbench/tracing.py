"""Per-layer timing from outside the program: wrap public functions in place.

A function is wrapped at every name the ``sentirisk`` modules bind it to
(``model.py`` binds ``conv1d_forward`` with ``from .layers import ...``, so
patching ``layers.conv1d_forward`` alone would miss every call the model
makes). Each wrapper counts calls and accumulates its span's self time: the
duration minus the time covered by nested wrapped calls.
Spans are aggregated per metric name as they close instead of being stored,
so a long run does not grow memory.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Installs wrappers with ``install`` and removes every one with ``restore``."""

    stats: dict[str, LayerStats] = field(default_factory=dict)
    _stack: list[float] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, metric: str, fn: Callable) -> Callable:
        st = self.stats.setdefault(metric, LayerStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.self_s += dur - child
                if stack:
                    stack[-1] += dur

        return traced

    def install(self, targets: dict[str, list[Callable]]) -> None:
        """targets maps a metric name to the functions counted under it.

        Plain functions are replaced in every loaded sentirisk module that
        binds them; a method (``Optimizer.apply``) is replaced on its class.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sentirisk" or name.startswith("sentirisk."))]
        for metric, fns in targets.items():
            for fn in fns:
                owner = _method_owner(fn, modules)
                if owner is not None:
                    self._patch(owner, fn.__name__, self._wrap(metric, fn))
                    continue
                wrapped = self._wrap(metric, fn)
                bound = [(m, name) for m in modules for name, v in vars(m).items() if v is fn]
                if not bound:
                    raise LookupError(f"{fn.__qualname__} is bound in no sentirisk module")
                for m, name in bound:
                    self._patch(m, name, wrapped)

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _method_owner(fn: Callable, modules: list) -> type | None:
    """The class defining fn when fn is a method, else None."""
    owner_name, _, attr = fn.__qualname__.rpartition(".")
    if not owner_name or "<" in owner_name:
        return None
    for m in modules:
        cls = vars(m).get(owner_name)
        if isinstance(cls, type) and vars(cls).get(attr) is fn:
            return cls
    return None
