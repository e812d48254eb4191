"""Identities leave the program as text, never as tuples.

``ProcessId`` and ``Endpoint`` are named tuples, and every JSON writer
here passes ``default=str`` — which ``json`` only consults for types it
cannot encode.  A raw identity in an event payload would therefore be
written as ``[3, "server0"]`` instead of ``server0@3``, silently.  The
producers ``str()`` them; this run keeps it so.
"""

import dataclasses

from repro.experiments.scenarios import LAN_SCENARIO, prepare_scenario
from repro.gcs.view import ProcessId
from repro.net.address import Endpoint

SPEC = dataclasses.replace(
    LAN_SCENARIO,
    name="lan-identity-fields",
    movie_duration_s=60.0,
    run_duration_s=60.0,
    schedule=((20.0, "crash-serving"), (40.0, "server-up")),
)


def _identities_in(value, path):
    if isinstance(value, (ProcessId, Endpoint)):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _identities_in(key, f"{path}.<key>")
            yield from _identities_in(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _identities_in(item, f"{path}[]")


def test_no_emitted_field_is_a_raw_identity(tmp_path):
    live = prepare_scenario(
        SPEC, telemetry_path=str(tmp_path / "run.jsonl"), flight=True
    )
    kinds = set()
    offenders = set()

    def firehose(event):
        kinds.add(event.kind)
        offenders.update(_identities_in(event.fields, event.kind))

    live.sim.telemetry.subscribe(firehose)  # no prefixes: everything
    with live:
        live.step(SPEC.run_duration_s)
    assert offenders == set()
    # The run really was observed end to end: both firehose kinds, the
    # crash with its takeover span, membership, server and client kinds.
    assert {
        "sim.fire", "net.deliver", "server.crash", "server.session.start",
        "gcs.view.install", "client.migrate", "span.begin", "span.end",
    } <= kinds
