"""Picklable descriptions of what a labeling worker needs.

Labeling functions are not picklable — they close over matcher lambdas,
knowledge-graph translation closures, and lazily started model servers.
What *is* picklable is the recipe that built them: an importable factory
plus its arguments. :class:`LFSuiteSpec` carries that recipe across the
process boundary and each worker rebuilds its own private suite from it,
the in-process analogue of shipping the LF binary to a compute node.

Examples are plain data and need no recipe: the executor pickles each
block once, as one ``(example_id, fields, servable, non_servable, label)``
tuple per example the worker rebuilds its ``Example`` objects from (see
:mod:`repro.parallel.executor`), so a worker labels the very field
values a serial run reads — tuples stay tuples, integer keys stay
integers — and sees exactly what decoding a record gives: attributes
set on an ``Example`` after construction never cross the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any

from repro.lf.base import AbstractLabelingFunction

__all__ = ["LFSuiteSpec"]


@dataclass(frozen=True)
class LFSuiteSpec:
    """An importable recipe for one LF suite: ``module:callable`` + args.

    The factory must be addressable by name from a bare interpreter
    (module-level function or classmethod path), and must be
    deterministic: two processes building from the same spec must
    produce suites that vote identically — that is the whole byte-parity
    argument for parallel labeling. Keyword values must themselves be
    picklable (strings, numbers, tuples).
    """

    factory: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.factory:
            raise ValueError(
                f"factory must be 'module:callable', got {self.factory!r}"
            )

    def build(self) -> list[AbstractLabelingFunction]:
        """Import the factory and construct the suite."""
        module_name, _, attr_path = self.factory.partition(":")
        target = import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part)
        lfs = target(*self.args, **self.kwargs)
        return list(lfs)
