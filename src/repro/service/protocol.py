"""Wire protocol for the admission service.

Frames are JSON objects prefixed by a 4-byte big-endian length — one
frame per request, one per response, processed in order per
connection.  JSON is the only codec the container is guaranteed to
have (msgpack would be a drop-in: the frame surface below is
byte-agnostic), so the semantic value types of the spec logic
(:class:`~repro.eval.values.Record`, :class:`~repro.eval.values.FMap`,
``frozenset``, ``tuple``) ride in a tagged form that round-trips them
exactly — admission conditions evaluate over the *decoded* values, so
a lossy codec would silently change decisions.

The server keeps each domain's abstract state by the spec, the way the
executor's :class:`~repro.runtime.executor.StructureHandle` does: the
client ships its run's initial state once, and every later frame
carries operations only.  A mutator's ``record`` advances the kept
state by the operation's abstract semantics, and an abort replays the
transaction's verified inverse calls on it, so at every check the
server decides against the state the client's executor holds.

Request frames (``t`` field):

- ``hello``   — version handshake; the server refuses mismatches.  The
  response carries the server's *cluster map* (worker id, every
  worker's port): a cluster-aware client learns the shard partition
  from it and opens one pooled connection per worker.
- ``open``    — create a server-side admission *domain* (one manager:
  structure, policy, shards, stable arming) → ``domain`` id.  Every
  domain lowers its conditions into compiled checks (:mod:`repro.compiled`);
  a ``compiled`` key from an older client is ignored.  The domain
  belongs to the connection that opened it: every frame below except
  ``stats`` is refused on any other connection, and when the
  connection ends the server closes the domain, counting each
  transaction still outstanding as an abort.
- ``state``   — the client's abstract state, once per run, ahead of its
  first ``check`` or ``record``; the domain keeps it from then on.
- ``check``   — batched admission (:meth:`ConflictManager.check_many`)
  of ``(txn, op, args)`` against the domain's outstanding log and kept
  state → admitted/holder, plus the shard the first conflict was found
  in (a cluster router merges per-worker verdicts by smallest
  conflicting shard, which is exactly the single-process first-conflict
  order).  An explicit ``shards`` list restricts the scan to that slice
  of the routed set (cluster workers own
  ``shard_id % workers == worker_id``).
- ``record``  — log an executed ``(txn, op, args, result)``; the server
  derives the logged ``before`` and ``after`` states itself and
  resolves a mutator's undo from its kept state.  An explicit
  ``shards`` list restricts storage to that slice (possibly empty:
  every cluster worker sees every record, to keep its state).
- ``release`` — drop a transaction's outstanding ops; ``reason="abort"``
  first undoes its mutations on the kept state.
- ``reset``   — clear a domain's log, kept state, counters and outcomes
  while keeping its manager (compiled checks, memoized routes) warm:
  the domain-reuse path for repeated workload runs.
- ``stats``   — the domain's counters + per-shard stats.
- ``close``   — retire the domain.
- ``batch``   — a list of the above, answered with a list of results
  in one round-trip (the client pipelines state/record/release frames
  and flushes them with the next check — order preserved, so
  decisions are identical to the unbatched sequence).
- ``ping``    — liveness probe.

A ``check`` or ``record`` on a domain with no kept state (none sent
since it opened or was reset) is refused.

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": msg}``.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from ..eval.values import FMap, Record
from ..eval.values import encode_value as canonical_form

#: Bumped on any frame-shape change; ``hello`` carries it and the
#: server refuses clients it cannot speak to.  v2: cluster map in the
#: hello response, explicit ``shards`` slices on check/record, the
#: conflicting shard in check responses, and the ``reset`` frame.
#: v3: the ``stats`` payload's counter keys are the names of
#: :data:`~repro.runtime.gatekeeper.COUNTERS` (``checks`` became
#: ``conflict_checks``, ``fallbacks`` became ``drift_fallbacks``).
#: v4: the server keeps each domain's abstract state; a ``state`` frame
#: sends it once per run, ``check`` and ``record`` carry no states,
#: and a domain belongs to the connection that opened it.
PROTOCOL_VERSION = 4

#: Frames above this are refused outright (a corrupt length prefix
#: must not allocate gigabytes).  Kept under 2**31 so the length
#: prefix of a real frame can never collide with ASCII "GET " — which
#: is how the server sniffs plain-HTTP ``/metrics`` scrapes on the
#: same port (b"GET " as a big-endian length would be ~1.2 GiB).
MAX_FRAME = 1 << 26

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """Malformed or out-of-contract frame traffic."""


# -- tagged value codec ------------------------------------------------------
#
# The encoding is the canonical form of repro.eval.values (the same one
# the decision digest hashes); anything it cannot encode is a bug worth
# failing loudly on.

def encode_value(value: Any) -> Any:
    """JSON-representable form of a spec-logic value
    (:func:`repro.eval.values.encode_value`)."""
    try:
        return canonical_form(value)
    except TypeError as exc:
        raise ProtocolError(str(exc)) from None


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    if isinstance(payload, dict):
        tag, inner = payload.get("#"), payload.get("v")
        if tag == "rec":
            return Record(**{k: decode_value(v) for k, v in inner.items()})
        if tag == "map":
            return FMap({k: decode_value(v) for k, v in inner.items()})
        if tag == "set":
            return frozenset(decode_value(item) for item in inner)
        if tag == "seq":
            return tuple(decode_value(item) for item in inner)
    raise ProtocolError(f"undecodable payload {payload!r}")


# -- framing -----------------------------------------------------------------

def pack_frame(frame: dict[str, Any]) -> bytes:
    """Length-prefixed JSON bytes of one frame."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds cap")
    return _LEN.pack(len(body)) + body


def unpack_length(prefix: bytes) -> int:
    """Decode and bounds-check a 4-byte length prefix."""
    if len(prefix) != _LEN.size:
        raise ProtocolError("truncated length prefix")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds cap")
    return length


def decode_body(body: bytes) -> dict[str, Any]:
    """Decode a frame body; the top level must be a JSON object."""
    frame = json.loads(body.decode("utf-8"))
    if not isinstance(frame, dict):
        raise ProtocolError("frame is not an object")
    return frame


# -- request builders --------------------------------------------------------

def hello_frame() -> dict[str, Any]:
    return {"t": "hello", "v": PROTOCOL_VERSION}


def open_frame(structure: str, *, policy: str = "commutativity",
               shards: int = 1, stable: bool = False,
               label: str = "") -> dict[str, Any]:
    return {"t": "open", "structure": structure, "policy": policy,
            "shards": shards, "stable": stable, "label": label}


def state_frame(domain: int, state: Record) -> dict[str, Any]:
    return {"t": "state", "d": domain, "state": encode_value(state)}


def check_frame(domain: int, txn_id: int, op_name: str,
                args: tuple[Any, ...],
                shards: tuple[int, ...] | None = None) -> dict[str, Any]:
    frame = {"t": "check", "d": domain, "txn": txn_id, "op": op_name,
             "args": encode_value(tuple(args))}
    if shards is not None:
        frame["shards"] = list(shards)
    return frame


def record_frame(domain: int, txn_id: int, op_name: str,
                 args: tuple[Any, ...], result: Any,
                 shards: tuple[int, ...] | None = None) -> dict[str, Any]:
    frame = {"t": "record", "d": domain, "txn": txn_id, "op": op_name,
             "args": encode_value(tuple(args)),
             "result": encode_value(result)}
    if shards is not None:
        frame["shards"] = list(shards)
    return frame


def release_frame(domain: int, txn_id: int,
                  reason: str = "commit") -> dict[str, Any]:
    return {"t": "release", "d": domain, "txn": txn_id, "reason": reason}


def reset_frame(domain: int) -> dict[str, Any]:
    return {"t": "reset", "d": domain}


def stats_frame(domain: int) -> dict[str, Any]:
    return {"t": "stats", "d": domain}


def close_frame(domain: int) -> dict[str, Any]:
    return {"t": "close", "d": domain}


def batch_frame(frames: list[dict[str, Any]]) -> dict[str, Any]:
    return {"t": "batch", "frames": frames}


def ping_frame() -> dict[str, Any]:
    return {"t": "ping"}


def error_response(message: str) -> dict[str, Any]:
    return {"ok": False, "error": message}
