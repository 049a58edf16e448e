"""Fold a cProfile run into per-layer self time and call counts.

A layer is a subpackage of ``repro`` (``repro.des``, ``repro.sim``, ...).
The package's top-level modules join ``core``: ``handlers_library`` is
the handler half of the core API and ``__init__`` only re-exports it.
Every other frame -- the standard library, builtins, third-party code,
dataclass-generated methods (filename ``<string>``) and this benchmark's
own code -- goes to ``stdlib``, so no frame is left unattributed.
"""

from __future__ import annotations

import os

STDLIB = "stdlib"

#: Top-level ``repro`` modules and the layer they join.
TOP_LEVEL = {"__init__": "core", "handlers_library": "core"}


def layer_names(repro_root: str) -> list[str]:
    """Every layer of the package at ``repro_root``, plus ``stdlib``."""
    subpackages = [
        entry.name for entry in os.scandir(repro_root)
        if entry.is_dir()
        and os.path.exists(os.path.join(entry.path, "__init__.py"))
    ]
    return sorted(set(subpackages) | set(TOP_LEVEL.values())) + [STDLIB]


class LayerFold:
    """Maps profiler filenames to layers of the package at ``repro_root``."""

    def __init__(self, repro_root: str):
        self.prefix = os.path.realpath(repro_root) + os.sep
        self.layers = layer_names(repro_root)
        self._memo: dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._resolve(filename)
            self._memo[filename] = layer
        return layer

    def _resolve(self, filename: str) -> str:
        if not os.path.isabs(filename):
            return STDLIB  # '~' (builtins), '<string>', '<frozen ...>'
        path = os.path.realpath(filename)
        if not path.startswith(self.prefix):
            return STDLIB
        head, _, rest = path[len(self.prefix):].partition(os.sep)
        if rest:
            return head if head in self.layers else STDLIB
        module = head[:-3] if head.endswith(".py") else head
        return TOP_LEVEL.get(module, STDLIB)

    def fold(self, stats: dict) -> dict[str, dict]:
        """``{layer: {"self_s", "calls"}}`` from ``cProfile.Profile.stats``.

        Every layer is present, zero where no frame landed.
        """
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in self.layers}
        for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
            slot = out[self.layer_of(filename)]
            slot["self_s"] += tt
            slot["calls"] += nc
        return out


def code_key(code) -> tuple:
    """The profiler's key for a function's code object."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


def counters(stats: dict) -> dict:
    """Named counters read off the profile of one sweep.

    ``sim.pool_hit_ratio`` is the share of ``Session.checkout`` calls that
    did not construct a ``Session`` (0 when nothing checked out);
    ``sim.zipf_build_s`` and ``campaign.cache_append_s`` are cumulative
    times in ``ZipfSampler.__init__`` and ``ResultCache.append``.
    """
    from repro.campaign import ResultCache
    from repro.sim.session import Session
    from repro.sim.zipf import ZipfSampler

    checkout = code_key(Session.checkout.__func__.__code__)
    checkouts = stats.get(checkout, (0, 0, 0.0, 0.0, {}))[1]
    init = stats.get(code_key(Session.__init__.__code__))
    built = init[4].get(checkout, (0,))[0] if init else 0

    def cumulative(fn) -> float:
        entry = stats.get(code_key(fn.__code__))
        return entry[3] if entry else 0.0

    return {
        "sim.pool_hit_ratio": (checkouts - built) / checkouts if checkouts else 0.0,
        "sim.checkouts": checkouts,
        "sim.zipf_build_s": cumulative(ZipfSampler.__init__),
        "campaign.cache_append_s": cumulative(ResultCache.append),
        "total.calls": sum(entry[1] for entry in stats.values()),
    }
