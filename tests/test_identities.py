"""The two hash-once identity types: ``ProcessId`` and ``Endpoint``.

Both cache their hash at construction.  The cache must be invisible —
same hash value, equality, ordering, ``repr`` and ``replace`` as the
plain frozen dataclass — and must not travel between interpreters.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.net.network import Network
from repro.net.udp import UdpSocket

CASES = [
    (ProcessId, (3, "server0"), (3, "server1"), "ProcessId(node=3, name='server0')",
     "server0@3", {"name": "x"}),
    (Endpoint, (3, 7000), (3, 8000), "Endpoint(node=3, port=7000)",
     "3:7000", {"port": 1}),
]


@pytest.mark.parametrize("cls,fields,larger,shown,text,change", CASES)
def test_cached_hash_is_invisible(cls, fields, larger, shown, text, change):
    identity = cls(*fields)
    # Exactly the generated __hash__, so set/dict iteration order of
    # every run is what it was before the cache existed.
    assert hash(identity) == hash(fields)
    assert identity == cls(*fields) and identity != cls(*larger)
    assert identity < cls(*larger) and not cls(*larger) < identity
    assert sorted([cls(*larger), identity]) == [identity, cls(*larger)]
    assert repr(identity) == shown and str(identity) == text
    replaced = dataclasses.replace(identity, **change)
    assert replaced == cls(fields[0], *change.values())
    assert hash(replaced) == hash((fields[0], *change.values()))
    assert copy.deepcopy(identity) == identity
    with pytest.raises(dataclasses.FrozenInstanceError):
        identity.node = 9


def test_identities_unpickled_under_another_hash_seed_find_themselves():
    """``str`` hashes differ per interpreter (spawned shard workers):
    the cached hash must be recomputed on unpickle, not carried over."""
    identities = [ProcessId(3, "server0"), Endpoint(3, 7000)]
    child = (
        "import json, pickle, sys\n"
        "from repro.gcs.view import ProcessId\n"
        "from repro.net.address import Endpoint\n"
        "built_here = {ProcessId(3, 'server0'): 'p', Endpoint(3, 7000): 'e'}\n"
        "got = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "print(json.dumps({'found': [built_here.get(i) for i in got],\n"
        "    'hash_ok': hash(got[0]) == hash((3, 'server0')),\n"
        "    'str_hash': hash('server0')}))\n"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(
        os.environ, PYTHONHASHSEED=seed,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    done = subprocess.run(
        [sys.executable, "-c", child, pickle.dumps(identities).hex()],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(done.stdout)
    assert report["found"] == ["p", "e"] and report["hash_ok"]
    # The child really hashed strings differently from this process.
    assert report["str_hash"] != hash("server0")


def test_socket_endpoint_is_one_object(sim):
    net = Network(sim)
    socket = UdpSocket(net.add_node(), 7000)
    assert socket.endpoint is socket.endpoint
    assert socket.endpoint == Endpoint(0, 7000)
    assert socket.sendto(Endpoint(0, 7000), "x", 10).src is socket.endpoint
