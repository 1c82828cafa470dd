"""Determinism checker for the byte-identity-critical surface.

The repo's central invariant — serial, parallel, resumed, and served
paths produce byte-identical artifacts — only holds if the modules on
that surface never consult wall clocks, unseeded RNGs, or unordered
containers while producing output. Runtime tests verify the paths they
exercise; this rule verifies **every** path at lint time.

Flagged inside :data:`DETERMINISM_SURFACE` modules:

* wall-clock reads — ``time.time``/``perf_counter``/``monotonic`` (and
  ``_ns`` variants), ``datetime.now``/``utcnow``/``today``;
* nondeterministic entropy — ``random.*`` module functions, the legacy
  ``numpy.random.*`` global-state functions (seeded constructions like
  ``numpy.random.default_rng`` / ``Generator`` / ``SeedSequence`` are
  fine), ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``;
* iteration directly over a ``set`` literal / ``set()`` call / set
  comprehension — hash order leaks into output order (wrap in
  ``sorted`` or use ``dict.fromkeys`` to deduplicate stably).

Telemetry and deadline code on the surface that legitimately reads the
clock (latency histograms, request deadlines — metadata that never
enters output bytes) carries per-line ``# repro: allow[determinism] reason``
suppressions; the justification requirement keeps each exception
audited.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import import_aliases, resolve_call
from repro.analysis.framework import Finding, ParsedModule, Rule

__all__ = ["DeterminismRule", "DETERMINISM_SURFACE"]

#: Modules whose outputs must be bit-reproducible: the generative-model
#: kernels, the batched LF executor, the record/filesystem codecs, the
#: durable sinks + checkpoints, and the serving tier's scoring path.
DETERMINISM_SURFACE = (
    "src/repro/core/",
    "src/repro/lf/applier.py",
    "src/repro/dfs/",
    "src/repro/streaming/sinks.py",
    "src/repro/streaming/checkpoint.py",
    "src/repro/serving/registry.py",
    "src/repro/serving/service.py",
)

#: Exact qualified names that read wall clocks or entropy.
FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)

#: ``numpy.random`` members that are *seeded constructions* rather than
#: draws from the hidden global generator.
SEEDED_NUMPY_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


class DeterminismRule(Rule):
    """No clocks, hidden RNG state, or set-order leaks on the surface."""

    id = "determinism"
    description = (
        "byte-identity-critical modules must not read wall clocks, "
        "unseeded RNGs, or iterate bare sets"
    )
    targets = ("src",)

    def __init__(self, surface: tuple[str, ...] = DETERMINISM_SURFACE) -> None:
        """Optionally narrow/replace the checked surface (tests do)."""
        self.surface = surface

    def _on_surface(self, relpath: str) -> bool:
        return any(
            relpath == entry or relpath.startswith(entry)
            for entry in self.surface
        )

    def check_module(self, module: ParsedModule) -> Iterator[Finding]:
        """Scan one surface module for forbidden calls and set iteration."""
        if not self._on_surface(module.relpath) or module.tree is None:
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iterable(module, node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                for generator in node.generators:
                    yield from self._check_iterable(module, generator.iter)

    def _check_call(
        self, module: ParsedModule, node: ast.Call, aliases: dict[str, str]
    ) -> Iterator[Finding]:
        qualified = resolve_call(node, aliases)
        if qualified is None:
            return
        if qualified in FORBIDDEN_CALLS:
            yield module.finding(
                self.id,
                node.lineno,
                f"call to {qualified} on the byte-identity surface "
                "(wall clocks and entropy sources are nondeterministic)",
            )
        elif qualified.startswith("random."):
            yield module.finding(
                self.id,
                node.lineno,
                f"call to {qualified}: the random module's hidden global "
                "state is nondeterministic; thread a seeded generator "
                "instead",
            )
        elif qualified.startswith("numpy.random."):
            member = qualified.rsplit(".", 1)[1]
            if member not in SEEDED_NUMPY_OK:
                yield module.finding(
                    self.id,
                    node.lineno,
                    f"call to {qualified}: legacy numpy global-RNG draw; "
                    "use numpy.random.default_rng(seed) and thread the "
                    "generator",
                )

    def _check_iterable(
        self, module: ParsedModule, iterable: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            yield module.finding(
                self.id,
                iterable.lineno,
                "iteration over a set literal/comprehension: hash order "
                "leaks into output order; sort it or use dict.fromkeys",
            )
        elif isinstance(iterable, ast.Call) and isinstance(
            iterable.func, ast.Name
        ):
            if iterable.func.id in {"set", "frozenset"}:
                yield module.finding(
                    self.id,
                    iterable.lineno,
                    f"iteration over a bare {iterable.func.id}() call: hash "
                    "order leaks into output order; sort it or use "
                    "dict.fromkeys",
                )
