"""The two identity types: ``ProcessId`` and ``Endpoint``.

Both are named tuples: hash, equality and ordering are the bare pair's,
computed in C (no Python frame per dict probe or comparison), and
nothing but the two fields travels between interpreters.
"""

import copy
import gc
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


@pytest.mark.parametrize(
    "cls,fields,larger,shown,text,change", CASES, ids=["ProcessId", "Endpoint"]
)
def test_an_identity_is_its_pair(cls, fields, larger, shown, text, change):
    identity = cls(*fields)
    # The pair's own hash, so set/dict iteration order of every run is
    # what it was when the types were dataclasses hashing their fields.
    assert hash(identity) == hash(fields)
    assert identity == fields and tuple(identity) == fields
    assert identity == cls(*fields) and identity != cls(*larger)
    assert identity < cls(*larger) and not cls(*larger) < identity
    assert sorted([cls(*larger), identity]) == [identity, cls(*larger)]
    assert repr(identity) == shown and str(identity) == text
    assert f"{identity}" == text
    replaced = identity._replace(**change)
    assert replaced == cls(fields[0], *change.values())
    assert hash(replaced) == hash((fields[0], *change.values()))
    assert type(replaced) is cls and type(copy.deepcopy(identity)) is cls
    with pytest.raises(AttributeError):
        identity.node = 9
    with pytest.raises(AttributeError):
        identity.extra = 9  # no instance dict either
    assert type(pickle.loads(pickle.dumps(identity))) is cls


def _python_frames(work):
    """Python-level calls made while ``work()`` runs (its own excluded)."""
    frames = []

    def profiler(frame, event, _arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    # A collection inside work() would run the gc.callbacks (Hypothesis
    # installs one) as Python frames that are not the identities' code.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return [name for name in frames if name != work.__name__]


@pytest.mark.parametrize(
    "cls,fields,larger", [case[:3] for case in CASES], ids=["ProcessId", "Endpoint"]
)
def test_probing_and_sorting_identities_runs_no_python(cls, fields, larger):
    many = [cls(node, fields[1]) for node in range(50, 0, -1)]
    table = dict.fromkeys(many, 0)
    members = set(many)
    small, large = cls(*fields), cls(*larger)  # construction is one frame
    out = []

    def work():
        for identity in many:
            table[identity] += 1
            out.append(identity in members)
        out.append(sorted(many))
        out.append(min(many))
        out.append(small < large)
        out.append({small} & {small, large})

    assert _python_frames(work) == []
    assert out[50] == many[::-1] and out[51] == many[-1] and out[52] is True


def test_identities_unpickled_under_another_hash_seed_find_themselves():
    """``str`` hashes differ per interpreter (spawned shard workers):
    an identity carries only its fields through pickle, never a hash."""
    identities = [ProcessId(3, "server0"), Endpoint(3, 7000)]
    child = (
        "import json, pickle, sys\n"
        "from repro.gcs.view import ProcessId\n"
        "from repro.net.address import Endpoint\n"
        "built_here = {ProcessId(3, 'server0'): 'p', Endpoint(3, 7000): 'e'}\n"
        "got = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "print(json.dumps({'found': [built_here.get(i) for i in got],\n"
        "    'types': [type(i).__name__ for i in got],\n"
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
    assert report["types"] == ["ProcessId", "Endpoint"]
    # The child really hashed strings differently from this process.
    assert report["str_hash"] != hash("server0")


def test_socket_endpoint_is_one_object(sim):
    net = Network(sim)
    socket = UdpSocket(net.add_node(), 7000)
    assert socket.endpoint is socket.endpoint
    assert socket.endpoint == Endpoint(0, 7000)
    assert socket.sendto(Endpoint(0, 7000), "x", 10).src is socket.endpoint
