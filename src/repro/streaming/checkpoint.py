"""Durable checkpoints of a streaming session.

A checkpoint is the session's *complete* resume state: the next round to
simulate, the engine's exported canonical state (per-color protocol
state, pending-job counts, cache slots, accumulated costs), the scheme's
decision state (RNG streams, mark sets, credit vectors), the ingestion
counters, and any source state.  A configuration echo (spec digest,
scheme/engine/resources/speed) guards against resuming into a different
experiment, and a payload digest guards against torn or edited files.

Restore contract: a session resumed from a checkpoint produces the same
``CostBreakdown`` as the uninterrupted session, bit for bit.  This is
nearly by construction — the session *always* advances by exporting and
re-importing this exact state between segments, so the resume path and
the uninterrupted path are the same code.

File format: canonical JSON (sorted keys, compact separators) of the
payload, with its SHA-256 ``digest`` spliced in as the first key.  The
text is built once per save and hashed as built; :meth:`StreamCheckpoint.
load` re-derives the canonical text of everything but the digest and
refuses a mismatch.  Schema v2 stores each color's pending work as a
count (v1 stored ``(arrival, jid)`` pairs); v1 files are refused.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.instance import ProblemSpec

CHECKPOINT_SCHEMA = "repro-stream-checkpoint/v2"


def spec_digest(spec: ProblemSpec) -> str:
    """Stable digest of a problem spec (checkpoint/session match check)."""
    payload = {
        "delay_bounds": {str(c): b for c, b in sorted(spec.delay_bounds.items())},
        "reconfig_cost": spec.cost.reconfig_cost,
        "drop_cost": spec.cost.drop_cost,
        "batch_mode": spec.batch_mode.value,
        "require_power_of_two": spec.require_power_of_two,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class CheckpointError(ValueError):
    """A checkpoint file is corrupt or does not match the session."""


@dataclass
class StreamCheckpoint:
    """Everything a :class:`~repro.streaming.session.StreamSession` needs
    to continue exactly where it stopped."""

    round: int
    config: dict
    engine_state: dict
    scheme_state: dict
    ingest_state: dict
    source_state: dict = field(default_factory=dict)
    rounds_executed: int = 0
    wall_seconds: float = 0.0
    #: Session-cumulative checkpoints written, including this one —
    #: carried so a resumed session's ``stream.checkpoints`` counter
    #: (and the series recorded from it) continues instead of resetting.
    checkpoints_written: int = 0
    #: Observability carry-over (series recorder + alert engine state);
    #: optional so payloads written without it still load.
    obs_state: dict = field(default_factory=dict)

    def _body(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "round": self.round,
            "config": self.config,
            "engine_state": self.engine_state,
            "scheme_state": self.scheme_state,
            "ingest_state": self.ingest_state,
            "source_state": self.source_state,
            "rounds_executed": self.rounds_executed,
            "wall_seconds": self.wall_seconds,
            "checkpoints_written": self.checkpoints_written,
            "obs_state": self.obs_state,
        }

    def to_payload(self) -> dict:
        body = self._body()
        body["digest"] = _payload_digest(body)
        return body

    @classmethod
    def from_payload(cls, payload: dict) -> "StreamCheckpoint":
        schema = payload.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema!r}; this build "
                f"reads {CHECKPOINT_SCHEMA} only (pending work is stored "
                "as per-color counts since v2; resume older runs with the "
                "build that wrote them)"
            )
        digest = payload.get("digest")
        expected = _payload_digest(
            {k: v for k, v in payload.items() if k != "digest"}
        )
        if digest != expected:
            raise CheckpointError(
                "checkpoint digest mismatch (torn write or edited file)"
            )
        return cls(
            round=payload["round"],
            config=payload["config"],
            engine_state=payload["engine_state"],
            scheme_state=payload["scheme_state"],
            ingest_state=payload["ingest_state"],
            source_state=payload.get("source_state", {}),
            rounds_executed=payload.get("rounds_executed", 0),
            wall_seconds=payload.get("wall_seconds", 0.0),
            checkpoints_written=payload.get("checkpoints_written", 0),
            obs_state=payload.get("obs_state", {}),
        )

    def save(self, path: str | Path) -> Path:
        """Write atomically (temp file + rename) so a crash mid-write
        leaves the previous checkpoint intact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        # Serialize once: hash the canonical bytes and write the digest
        # as the first key ahead of them instead of re-dumping the whole
        # payload (the memoryview skips the body's opening brace
        # without copying it).
        data = _canonical(self._body()).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        with open(tmp, "wb") as handle:
            handle.write(f'{{"digest":"{digest}",'.encode("ascii"))
            handle.write(memoryview(data)[1:])
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "StreamCheckpoint":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {error}"
            ) from error
        return cls.from_payload(payload)
