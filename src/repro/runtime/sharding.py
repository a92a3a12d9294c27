"""Shard routing: mapping operations to the log regions they can touch.

The verified between conditions tell us statically *which* operations
interact: a Set ``add(v)`` only ever conflicts with operations on the
same element ``v``, a Map ``put(k, _)`` with operations on the same key
``k``, an ArrayList mutation at index ``i`` with operations at indices
``>= i``.  A shard router turns that interaction structure into a
partition of the gatekeeper log: each operation is routed to the shards
it can interact with, and admission checks skip every shard the
incoming operation provably cannot conflict with.

Soundness contract: a router may only keep two operations in disjoint
shard sets when their between condition holds in *every* state — i.e.
when they unconditionally commute.  The built-in family routers below
satisfy this by construction; custom structures fall back to a single
region (everything in shard 0, flat-log behaviour) unless they register
their own router via :meth:`repro.api.Registry.register_shard_router`.
:func:`route` is the one answer to "which shards does this operation
touch", for the conflict manager and the cluster client alike.

A router is a callable ``router(op_name, args, num_shards)`` returning
a sequence of shard ids, or ``None`` meaning "all shards" (the
operation can interact with anything — e.g. ``size``).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional, Sequence

#: Router signature: (op_name, args, num_shards) -> shard ids or None
#: (None = the operation may interact with every shard).
ShardRouter = Callable[[str, tuple, int], Optional[Sequence[int]]]

#: The granularity at which routers act as a *universal-commutation
#: oracle* inside the pair check itself: two operations whose routes at
#: this granularity are disjoint commute in every state.  The pair
#: check still evaluates the condition; it consults the oracle only
#: where the condition cannot decide (a drifted state-reading condition
#: that no stable condition admitted, or an unevaluable one: the
#: conservative fallback admits region-disjoint pairs) and in the undo
#: guard, which skips re-executing the pending undo for them.  Physical
#: shard counts are restricted to powers of two (dividing this), which
#: makes physical scan-pruning a refinement of the virtual test — the
#: property behind flat-vs-sharded decision equivalence.
VIRTUAL_REGIONS = 64


def stable_hash(value: Any) -> int:
    """A process-stable hash (``hash(str)`` is randomized per process;
    shard assignment must be deterministic across runs and workers)."""
    return zlib.crc32(repr(value).encode("utf-8"))


def single_region_router(op_name: str, args: tuple,
                         num_shards: int) -> Sequence[int]:
    """The conservative fallback: every operation in one region, so a
    manager of any shard count behaves exactly like the flat log."""
    return (0,)


def keyed_router(op_name: str, args: tuple,
                 num_shards: int) -> Sequence[int] | None:
    """Key-argument hashing for the Set and Map families.

    Every Set/Map operation with arguments is keyed by its first
    argument (the element or map key), and two operations on distinct
    keys unconditionally commute (Tables 5.2-5.5: every non-trivial
    between condition is conditioned on key equality).  Argument-less
    operations (``size``) observe the whole structure and route to every
    shard.
    """
    if not args:
        return None
    return (stable_hash(args[0]) % num_shards,)


def accumulator_router(op_name: str, args: tuple,
                       num_shards: int) -> Sequence[int] | None:
    """Amount-hashing for the Accumulator family.

    ``increase(n); increase(m)`` commutes unconditionally (Table 5.1),
    so increases may be spread across shards by amount; ``read``
    interacts with every increase and routes to all shards.
    """
    if not args:
        return None  # read (and any other observer) sees everything
    return (stable_hash(args[0]) % num_shards,)


#: ArrayList operations that scan the whole list.
_ARRAYLIST_GLOBAL = ("indexOf", "lastIndexOf", "size")
#: ArrayList operations that shift every index >= their argument.
_ARRAYLIST_SHIFTING = ("add_at", "remove_at")
#: Indices per band (coarser bands = fewer shards touched per shift;
#: sized so small lists collapse into band 0 — flat-log behaviour with
#: no routing overhead — while preloaded lists spread across shards).
ARRAYLIST_BAND_WIDTH = 8


def arraylist_router(op_name: str, args: tuple,
                     num_shards: int) -> Sequence[int] | None:
    """Index-range banding for the ArrayList family.

    Indices are grouped into bands of :data:`ARRAYLIST_BAND_WIDTH`;
    band ``b`` maps to shard ``min(b, num_shards - 1)``.  ``get``/``set``
    touch exactly their index's band.  ``add_at``/``remove_at`` shift
    every element at an index >= their argument, so they route to their
    band *and every higher band* — any operation at a lower band is at a
    strictly smaller index and unconditionally commutes (Tables
    5.6-5.7: the conditions compare indices).  Value searches and
    ``size`` scan the whole list and route everywhere.
    """
    if op_name.startswith(_ARRAYLIST_GLOBAL) or not args:
        return None
    band = min(args[0] // ARRAYLIST_BAND_WIDTH, num_shards - 1)
    if op_name.startswith(_ARRAYLIST_SHIFTING):
        return tuple(range(band, num_shards))
    return (band,)  # get / set / set_: exactly one index


#: The built-in family routers, keyed by specification-family name
#: (:func:`repro.api.default.populate_builtins` registers these).
FAMILY_ROUTERS: dict[str, ShardRouter] = {
    "Set": keyed_router,
    "Map": keyed_router,
    "Accumulator": accumulator_router,
    "ArrayList": arraylist_router,
}


def normalize_route(ids: Sequence[int] | None,
                    num_shards: int) -> tuple[int, ...]:
    """Clamp a router's answer to valid, sorted, deduplicated shard ids
    (``None`` -> all shards)."""
    if ids is None:
        return tuple(range(num_shards))
    return tuple(sorted({i % num_shards for i in ids}))


def route(router: ShardRouter | None, policy: str, num_shards: int,
          op_name: str, args: tuple) -> tuple[int, ...]:
    """The shards ``op_name(args)`` touches, in ascending order: a
    logged entry is stored in them, an incoming admission scans them,
    and an atomic admit-and-apply step locks them.

    Routing only partitions under the ``commutativity`` policy: the
    verified between conditions are what justify skipping a pair check
    (a router may only separate unconditionally commuting operations),
    while ``read-write`` and ``mutex`` conflict whatever the arguments.
    So one shard, another policy or no router all route to shard 0.
    """
    if num_shards == 1 or policy != "commutativity" or router is None:
        return (0,)
    return normalize_route(router(op_name, args, num_shards), num_shards)


def check_shard_count(shards: int) -> None:
    """Raise :class:`ValueError` unless ``shards`` is a power of two
    dividing :data:`VIRTUAL_REGIONS`."""
    if shards < 1 or shards > VIRTUAL_REGIONS or shards & (shards - 1):
        raise ValueError(
            f"shards must be a power of two in "
            f"[1, {VIRTUAL_REGIONS}], got {shards}")
