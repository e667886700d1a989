"""Run manifests: the identity a checkpoint is only resumable under.

A manifest pins everything that determines a sweep's result rows —
the experiment (CLI command), its parameter values, and the master
seed — plus the checkpoint format and code version for compatibility
checks. ``--resume`` refuses (exit 2) when the requested run does not
match the recorded manifest: silently mixing points from two different
configurations would corrupt every downstream comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.recovery.artifacts import ArtifactError

#: Bump on incompatible changes to the manifest/checkpoint layout.
CHECKPOINT_FORMAT_VERSION = 2

#: Manifest keys whose JSON type is checked on load: (key, type, name).
_TYPED_KEYS = (
    ("experiment", str, "a string"),
    ("seed", int, "an integer"),
    ("parameters", dict, "an object"),
    ("checkpoint_format", int, "an integer"),
)


@dataclass(frozen=True)
class RunManifest:
    """Identity of one checkpointed run."""

    experiment: str
    seed: int
    parameters: dict[str, Any] = field(default_factory=dict)
    checkpoint_format: int = CHECKPOINT_FORMAT_VERSION
    code_version: str = ""

    def __post_init__(self) -> None:
        if not self.code_version:
            import repro

            object.__setattr__(
                self, "code_version", getattr(repro, "__version__", "unknown")
            )

    def to_doc(self) -> dict[str, Any]:
        return {
            "kind": "omega-sim-checkpoint",
            "checkpoint_format": self.checkpoint_format,
            "experiment": self.experiment,
            "seed": self.seed,
            "parameters": dict(self.parameters),
            "code_version": self.code_version,
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any], path: str = "manifest") -> "RunManifest":
        if doc.get("kind") != "omega-sim-checkpoint":
            raise ArtifactError(
                f"{path}: not a checkpoint manifest "
                f"(kind={doc.get('kind')!r}, expected 'omega-sim-checkpoint')"
            )
        for key, kind, name in _TYPED_KEYS:
            value = doc.get(key)
            if key in doc and (not isinstance(value, kind) or isinstance(value, bool)):
                raise ArtifactError(
                    f"{path}: corrupt checkpoint manifest: {key!r} must be "
                    f"{name}, got {value!r}"
                )
        return cls(
            experiment=doc.get("experiment", ""),
            seed=doc.get("seed", 0),
            parameters=dict(doc.get("parameters", {})),
            checkpoint_format=doc.get("checkpoint_format", -1),
            code_version=str(doc.get("code_version", "unknown")),
        )

    def mismatches(self, recorded: "RunManifest") -> list[str]:
        """Reasons the ``recorded`` manifest cannot serve this run."""
        problems: list[str] = []
        if recorded.checkpoint_format != self.checkpoint_format:
            problems.append(
                f"checkpoint format {recorded.checkpoint_format} != "
                f"supported {self.checkpoint_format}"
            )
        if recorded.experiment != self.experiment:
            problems.append(
                f"experiment {recorded.experiment!r} != requested "
                f"{self.experiment!r}"
            )
        if recorded.seed != self.seed:
            problems.append(f"seed {recorded.seed} != requested {self.seed}")
        keys = sorted(set(self.parameters) | set(recorded.parameters))
        for key in keys:
            mine = self.parameters.get(key)
            theirs = recorded.parameters.get(key)
            if mine != theirs:
                problems.append(
                    f"parameter {key}={theirs!r} != requested {key}={mine!r}"
                )
        return problems
