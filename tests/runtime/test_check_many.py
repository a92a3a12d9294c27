"""Edge cases of the batched admission entry point ``check_many``:
empty batches, conflicts discovered mid-batch, and EvalError fallback
decided per-pair rather than per-batch."""

from repro.eval import Record
from repro.runtime import ConflictManager, LoggedOperation


def _seq_state(*elems):
    return Record(elems=tuple(elems))


# -- empty batches ------------------------------------------------------------

def test_empty_log_admits_trivially():
    gk = ConflictManager("ArrayList")
    admitted, holder = gk.check_many(1, "set", (0, "x"), _seq_state("a"))
    assert admitted is True and holder is None
    assert gk.counters()["conflict_checks"] == 0
    assert gk.counters()["conflicts"] == 0


def test_empty_shard_set_checks_nothing():
    """An explicit empty ``shard_ids`` is authoritative: nothing is
    scanned even when the log holds a conflicting pair."""
    gk = ConflictManager("ArrayList")
    state = _seq_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="set", args=(0, "b"),
                              result=None, before=state,
                              after=_seq_state("b"),
                              undo=(("set", (0, "a")),)))
    admitted, holder = gk.check_many(2, "set", (0, "x"),
                                     _seq_state("b"), shard_ids=())
    assert admitted is True and holder is None
    assert gk.counters()["conflict_checks"] == 0


def test_own_operations_are_skipped():
    gk = ConflictManager("ArrayList")
    state = _seq_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="set", args=(0, "b"),
                              result=None, before=state,
                              after=_seq_state("b"),
                              undo=(("set", (0, "a")),)))
    admitted, holder = gk.check_many(1, "set", (0, "x"), _seq_state("b"))
    assert admitted is True and holder is None
    assert gk.counters()["conflict_checks"] == 0  # self-pairs are not checks


# -- conflicts mid-batch ------------------------------------------------------

def test_partial_admission_stops_at_the_first_conflict():
    """A batch that admits its first pair (via the EvalError fallback
    oracle, no less) and conflicts on its second reports the second
    pair's holder — and counts exactly one conflict."""
    gk = ConflictManager("ArrayList")
    wide = _seq_state(*["a"] * 9)
    # Pair 1: a read logged against a one-element snapshot — checking
    # set(8, ...) against it EvalErrors (index 8 off a 1-element
    # state) and lands on the region oracle, which admits the
    # disjoint bands.
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=_seq_state("a"),
                              after=_seq_state("a"), undo=()))
    # Pair 2: an outstanding write to the same index — a certain
    # conflict.
    gk.record(LoggedOperation(txn_id=1, op_name="set", args=(8, "b"),
                              result=None, before=wide, after=wide,
                              undo=(("set", (8, "a")),)))
    admitted, holder = gk.check_many(2, "set", (8, "x"), wide)
    assert admitted is False and holder == 1
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 1
    assert gk.counters()["conflicts"] == 1


def test_holder_identifies_the_conflicting_transaction():
    """Wait-die ordering needs the *first* conflicting holder in log
    order, not just a boolean."""
    gk = ConflictManager("ArrayList")
    state = _seq_state("a", "b")
    for txn_id in (4, 7):
        gk.record(LoggedOperation(txn_id=txn_id, op_name="set",
                                  args=(0, f"v{txn_id}"), result=None,
                                  before=state, after=state,
                                  undo=(("set", (0, "a")),)))
    admitted, holder = gk.check_many(9, "set", (0, "x"), state)
    assert admitted is False and holder == 4


# -- EvalError fallback, per pair --------------------------------------------

def test_eval_error_mid_batch_is_decided_per_pair():
    """One unevaluable pair must not poison the batch: the fallback
    refuses or admits *that pair* by the region oracle and the sweep
    continues."""
    gk = ConflictManager("ArrayList")
    # Same-band unevaluable pair: conservative conflict.
    state = _seq_state("a")
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=state, after=state,
                              undo=()))
    admitted, holder = gk.check_many(2, "set", (1, "x"), state)
    assert admitted is False and holder == 1
    assert gk.counters()["drift_fallbacks"] == 1
    assert gk.counters()["fallback_admits"] == 0

    # Disjoint-band unevaluable pair: the oracle admits, and the
    # admitted verdict comes back through the same batched path.
    wide = _seq_state(*["a"] * 9)
    admitted, holder = gk.check_many(2, "set", (8, "x"), wide)
    assert admitted is True and holder is None
    assert gk.counters()["drift_fallbacks"] == 2
    assert gk.counters()["fallback_admits"] == 1


# -- sharded batches ----------------------------------------------------------

def test_sharded_check_many_respects_the_shard_ids_contract():
    gk = ConflictManager("ArrayList", shards=4)
    state = _seq_state("a", "b", "c")
    gk.record(LoggedOperation(txn_id=1, op_name="get", args=(0,),
                              result="a", before=state, after=state,
                              undo=()))
    shard_ids = gk.shards_for("set", (0, "x"))
    admitted, holder = gk.check_many(2, "set", (0, "x"), state,
                                     shard_ids=shard_ids)
    assert admitted is False and holder == 1
    # The empty-batch contract holds under sharding too.
    admitted, holder = gk.check_many(2, "set", (0, "x"), state,
                                     shard_ids=())
    assert admitted is True and holder is None
