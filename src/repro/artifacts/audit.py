"""``repro audit``: re-execute a run artifact and diff it bitwise.

An audit answers, with exit-code certainty, "does this stored result
still reproduce?":

1. **integrity** — the artifact's internal digests are recomputed from
   its payload; a tampered or torn file fails here (exit 1) without
   simulating anything;
2. **re-execution** — the artifact's ``config`` recipe is replayed
   through the same entry points that produced it (the sweep executor,
   or a verify/cost/chaos/replay/mc/prove gate), serially and without
   the result cache, so the comparison is against fresh simulation;
3. **bitwise diff** — the fresh payload must equal the stored
   ``records`` exactly (after scrubbing the wall-clock telemetry fields
   every comparison ignores, see :data:`~repro.artifacts.store.VOLATILE_KEYS`);
   the first differing paths are named in the report.

A mismatch with environment drift (different code-version salt, solver
or engine mode) is still a mismatch — but the report says which
fingerprint fields moved, so "the simulator changed" is distinguishable
from "the result rotted".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..errors import ArtifactError
from .store import ArtifactStore, RunArtifact, artifact_digest, scrub

__all__ = ["AuditResult", "audit_artifact", "reexecute", "diff_payload"]

_DIFF_LIMIT = 10


def diff_payload(expected: Any, actual: Any) -> List[str]:
    """Paths where two scrubbed payloads differ (bounded list)."""
    out: List[str] = []
    _diff(scrub(expected), scrub(actual), "$", out)
    return out


def _diff(exp: Any, act: Any, path: str, out: List[str]) -> None:
    if len(out) >= _DIFF_LIMIT:
        return
    if isinstance(exp, dict) and isinstance(act, dict):
        for key in sorted(set(exp) | set(act)):
            if key not in exp:
                out.append(f"{path}.{key}: unexpected in re-execution")
            elif key not in act:
                out.append(f"{path}.{key}: missing from re-execution")
            else:
                _diff(exp[key], act[key], f"{path}.{key}", out)
            if len(out) >= _DIFF_LIMIT:
                return
        return
    if isinstance(exp, list) and isinstance(act, list):
        if len(exp) != len(act):
            out.append(
                f"{path}: length {len(exp)} stored vs {len(act)} re-executed"
            )
            return
        for i, (e, a) in enumerate(zip(exp, act)):
            _diff(e, a, f"{path}[{i}]", out)
            if len(out) >= _DIFF_LIMIT:
                return
        return
    if exp != act:
        out.append(f"{path}: stored {exp!r} vs re-executed {act!r}")


def _rerun_sweep(config: dict) -> Any:
    import dataclasses

    from ..core.executor import SweepExecutor
    from ..service import protocol

    spec = protocol.decode_spec(config["spec"])
    points = protocol.decode_points(config["points"])
    faults = protocol.decode_faults(config.get("faults"))
    reliable = protocol.decode_reliable(config.get("reliable"))
    records = SweepExecutor(jobs=1, cache=None, serve=False).run(
        spec,
        points,
        root=int(config.get("root", 0)),
        placement=config.get("placement", "blocked"),
        faults=faults,
        reliable=reliable,
    )
    return [dataclasses.asdict(rec) for rec in records]


def reexecute(artifact: RunArtifact) -> Any:
    """Replay an artifact's recipe; returns the fresh payload.

    A sweep re-runs through the sweep executor; every other kind is a
    gate and re-runs through the gate table the CLI used to record it.
    """
    if artifact.kind == "sweep":
        return _rerun_sweep(artifact.config)
    from ..analysis import gates

    if not gates.recorded(artifact.kind):
        known = ["sweep"] + [k for k in sorted(gates.GATES) if gates.recorded(k)]
        raise ArtifactError(
            f"cannot re-execute artifact kind {artifact.kind!r} (known: {known})"
        )
    return gates.evaluate(artifact.kind, artifact.config)["report"]


@dataclass(frozen=True)
class AuditResult:
    """Verdict of one artifact audit."""

    name: str
    kind: str
    ok: bool
    integrity: List[str] = field(default_factory=list)  # digest problems
    mismatches: List[str] = field(default_factory=list)  # bitwise diffs
    env_drift: List[str] = field(default_factory=list)  # fingerprint moved
    reexecuted: bool = False

    def describe(self) -> str:
        if self.ok:
            return (
                f"audit {self.name}: OK — re-execution reproduced the "
                f"stored records bit-for-bit"
            )
        lines = [f"audit {self.name}: FAILED"]
        for p in self.integrity:
            lines.append(f"  integrity: {p}")
        for m in self.mismatches:
            lines.append(f"  mismatch: {m}")
        if self.mismatches and self.env_drift:
            lines.append(
                "  note: the environment fingerprint moved since this "
                "artifact was recorded —"
            )
            for d in self.env_drift:
                lines.append(f"    {d}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "integrity": list(self.integrity),
            "mismatches": list(self.mismatches),
            "env_drift": list(self.env_drift),
            "reexecuted": self.reexecuted,
        }


def audit_artifact(
    ref, store: Optional[ArtifactStore] = None
) -> AuditResult:
    """Audit one artifact (a path, name, or loaded :class:`RunArtifact`).

    Integrity problems short-circuit (a tampered file is a failure; no
    point re-simulating against altered records). Otherwise the recipe
    is re-executed and diffed bitwise.
    """
    if isinstance(ref, RunArtifact):
        artifact = ref
        name = artifact.name
    else:
        artifact = (store or ArtifactStore()).load(ref)
        name = str(ref)
    problems = artifact.integrity_problems()
    if problems:
        return AuditResult(
            name=name,
            kind=artifact.kind,
            ok=False,
            integrity=problems,
            env_drift=artifact.env_drift(),
        )
    fresh = reexecute(artifact)
    if artifact_digest(fresh) == artifact.records_digest:
        return AuditResult(
            name=name, kind=artifact.kind, ok=True, reexecuted=True
        )
    return AuditResult(
        name=name,
        kind=artifact.kind,
        ok=False,
        mismatches=diff_payload(artifact.records, fresh)
        or ["records digest differs but no structural diff found"],
        env_drift=artifact.env_drift(),
        reexecuted=True,
    )
