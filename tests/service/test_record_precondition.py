"""A record frame outside its operation's precondition is refused: the
server answers ``ok: false`` and leaves the kept state, the undo logs
and the shard logs as they were; a valid record afterwards applies."""

import pytest

from repro.eval import Record
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture()
def client(live_server):
    client = ServiceClient(live_server.host, live_server.port)
    yield client
    client.close()


def _logged(domain):
    return [list(shard.log) for shard in domain.manager._shards]


@pytest.mark.parametrize("structure,state,bad,good", [
    ("ArrayList", Record(elems=("a", "b", "c"), size=3),
     [("remove_at", (-1,)), ("remove_at", (3,)), ("add_at", (4, "z")),
      ("set", (0, None)), ("remove_at", (0, 1))],
     ("remove_at", (2,), "c", Record(elems=("a", "b"), size=2),
      (("add_at", (2, "c")),))),
    ("HashSet", Record(contents=frozenset({"a"}), size=1),
     [("add", (None,)), ("remove_", (None,)), ("add", ())],
     ("add", ("b",), True,
      Record(contents=frozenset({"a", "b"}), size=2),
      (("remove", ("b",)),))),
])
def test_a_record_outside_the_precondition_changes_nothing(
        client, live_server, structure, state, bad, good):
    domain_id = client.call(protocol.open_frame(structure, shards=2,
                                                label="test"))["domain"]
    domain = live_server.server._domains[domain_id]
    client.call(protocol.state_frame(domain_id, state))
    for op, args in bad:
        with pytest.raises(ServiceError, match=op):
            client.call(protocol.record_frame(domain_id, 1, op, args,
                                              None))
        assert domain.state is state or domain.state == state
        assert domain.txns == {}
        assert all(not log for log in _logged(domain))
    op, args, result, after, undo = good
    client.call(protocol.record_frame(domain_id, 1, op, args, result))
    assert domain.state == after
    assert domain.txns[1] == [undo]
    assert any(log for log in _logged(domain))
