"""Versioned model registry with evaluation-gated blessing.

TFX's Evaluator/Pusher components only promote ("bless") a model when it
clears its evaluation bar; the serving layer then picks up the newest
blessed version. This registry reproduces that contract in-process so the
pipeline, the server, and the tests share one source of truth about what
is deployed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ModelVersion", "ModelRegistry"]


@dataclass
class ModelVersion:
    """One staged model with its evaluation record."""

    name: str
    version: int
    model: Any
    featurizer: Any
    metrics: dict[str, float] = field(default_factory=dict)
    blessed: bool = False
    notes: str = ""


class ModelRegistry:
    """Thread-safe in-process model store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._versions: dict[str, list[ModelVersion]] = {}

    def stage(
        self,
        name: str,
        model: Any,
        featurizer: Any,
        metrics: dict[str, float] | None = None,
        blessed: bool = False,
        notes: str = "",
    ) -> ModelVersion:
        """Register a new version; returns it with its assigned number.

        Args:
            name: Model name (the registry namespaces versions by it).
            model: The trained model object to stage.
            featurizer: The featurizer the model was trained with.
            metrics: Evaluation metrics recorded with the version.
            blessed: Whether the version is immediately deployable.
            notes: Free-form provenance notes.

        Returns:
            The staged :class:`ModelVersion` with its version number.
        """
        with self._lock:
            history = self._versions.setdefault(name, [])
            version = ModelVersion(
                name=name,
                version=len(history) + 1,
                model=model,
                featurizer=featurizer,
                metrics=dict(metrics or {}),
                blessed=blessed,
                notes=notes,
            )
            history.append(version)
            return version

    def bless(self, name: str, version: int) -> None:
        """Mark a staged version as deployable.

        Args:
            name: Model name.
            version: Version number returned by :meth:`stage`.

        Raises:
            KeyError: If no such version was staged.
        """
        entry = self._find(name, version)
        entry.blessed = True

    def latest_blessed(self, name: str) -> ModelVersion | None:
        """Newest blessed version of a model, or ``None``."""
        with self._lock:
            history = self._versions.get(name, [])
            for entry in reversed(history):
                if entry.blessed:
                    return entry
        return None

    def latest(self, name: str) -> ModelVersion | None:
        """Newest staged version regardless of blessing, or ``None``.

        Args:
            name: Model name.

        Returns:
            The most recently staged :class:`ModelVersion`, or ``None``
            when nothing has been staged under ``name``.
        """
        with self._lock:
            history = self._versions.get(name, [])
            return history[-1] if history else None

    def versions(self, name: str) -> list[ModelVersion]:
        """All staged versions of a model, oldest first.

        Args:
            name: Model name.

        Returns:
            A copy of the version history (possibly empty).
        """
        with self._lock:
            return list(self._versions.get(name, []))

    def _find(self, name: str, version: int) -> ModelVersion:
        with self._lock:
            for entry in self._versions.get(name, []):
                if entry.version == version:
                    return entry
        raise KeyError(f"no version {version} of model {name!r}")
