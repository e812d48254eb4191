"""``repro-vod postmortem`` — explainable incident reports.

Three sources, one renderer:

* **Live scenario** (default): run the LAN or WAN reference scenario
  with the flight recorder attached and render whatever incidents its
  trigger rules captured (the LAN scenario's mid-run crash and fault
  injections make it a reliable demo).
* **Scale point** (``source="scale"``): run the flyweight chaos rig at
  population ``n``, one process and one deployment, and render its
  incidents.
* **Recorded export** (``export=path``): replay a telemetry JSONL (or
  ``.jsonl.gz``) artifact through a detached recorder, optionally
  windowed by ``since``/``until`` sim seconds.

The result's ``incidents`` field carries the portable
``Incident.as_dict()`` payloads; ``json`` dumps them to a file for the
CI gate and offline digging.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.errors import ServiceError
from repro.experiments.api import ExperimentResult, ExperimentSpec
from repro.telemetry.flight import FlightRecorderConfig, Incident
from repro.telemetry.postmortem import render_incidents

#: Each source's CLI flag.
_SOURCE_FLAGS = {
    "export": "--from-export", "scale": "--scale", "scenario": "--scenario",
}

#: Params only some sources read: CLI flag, the sources reading it, and
#: how the error names them.
_READERS = {
    "since": ("--since", ("export",), "--from-export"),
    "until": ("--until", ("export",), "--from-export"),
    "duration": ("--duration", ("scenario", "scale"), "a live run"),
}


def _config_from_params(params: Dict) -> FlightRecorderConfig:
    kwargs = {}
    for key in ("default_budget", "pre_trigger_s", "post_trigger_s",
                "max_capture_events", "max_incidents", "horizon_s"):
        if params.get(key) is not None:
            kwargs[key] = params[key]
    return FlightRecorderConfig(**kwargs)


def _source_of(params: Dict) -> str:
    """The one source ``params`` select; a flag that source would not
    read raises :class:`ServiceError` naming it, before anything runs."""
    chosen = [
        source for source, given in (
            ("export", params.get("export")),
            ("scale", params.get("source") == "scale"),
            ("scenario", params.get("scenario") is not None),
        ) if given
    ]
    if len(chosen) > 1:
        raise ServiceError(
            "postmortem reads one source, got "
            + " and ".join(_SOURCE_FLAGS[source] for source in chosen)
        )
    source = chosen[0] if chosen else "scenario"
    for key, (flag, readers, needs) in _READERS.items():
        if params.get(key) not in (None, False) and source not in readers:
            raise ServiceError(
                f"postmortem {flag} is read only with {needs}; this "
                f"run's source would ignore it"
            )
    return source


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Entry point for ``ExperimentSpec(name="postmortem")``.

    Params: ``export`` (replay a recorded JSONL artifact instead of a
    live source), ``since``/``until`` (replay window, sim seconds),
    ``source`` (``scenario``/``scale``), ``scenario`` (``lan``/``wan``),
    ``duration`` (simulated seconds), ``n`` (scale population),
    ``max_rows`` (render cap), ``json`` (dump incident payloads there),
    plus recorder-config overrides (``default_budget``,
    ``pre_trigger_s``, ``post_trigger_s``, ``max_capture_events``,
    ``max_incidents``, ``horizon_s``).  Two sources, or a param the
    chosen source does not read, raise :class:`ServiceError`.
    """
    params = spec.params
    source = _source_of(params)
    config = _config_from_params(params)
    max_rows = int(params.get("max_rows", 40))
    seed = spec.seed if spec.seed is not None else 77

    incidents: List[Incident]
    metering = None
    header: str

    if source == "export":
        from repro.telemetry.postmortem import incidents_from_export

        export = params["export"]

        incidents = incidents_from_export(
            export, config,
            since=params.get("since"), until=params.get("until"),
        )
        header = f"postmortem of recorded export {export}"
    elif source == "scale":
        from repro.experiments.scale import run_scale_point

        n = int(params.get("n", 20_000))
        duration = float(params.get("duration", 12.0))
        point = run_scale_point(
            n, 1.0, duration_s=duration, seed=seed, flyweight=True,
            flight=True, flight_config=config,
        )
        header = (
            f"postmortem of flyweight scale run: N={n:,}, "
            f"{duration:.0f}s, seed {seed}"
        )
        incidents = [Incident.from_dict(i) for i in point.incidents]
        metering = point.flight
    else:
        from repro.experiments.scenarios import (
            LAN_SCENARIO, WAN_SCENARIO, run_scenario,
        )

        scenario = {"lan": LAN_SCENARIO, "wan": WAN_SCENARIO}[
            params.get("scenario", "lan")
        ]
        if params.get("duration") is not None:
            import dataclasses

            duration = float(params["duration"])
            scenario = dataclasses.replace(
                scenario,
                movie_duration_s=max(scenario.movie_duration_s, duration),
                run_duration_s=duration,
            )
        result = run_scenario(
            scenario, seed=spec.seed,
            telemetry_path=spec.telemetry_path,
            flight=True, flight_config=config,
        )
        incidents = result.incidents
        metering = result.flight
        header = (
            f"postmortem of scenario {scenario.name}: "
            f"{scenario.run_duration_s:.0f}s, seed "
            f"{spec.seed if spec.seed is not None else scenario.seed}"
        )

    payloads = [i.as_dict() for i in incidents]
    blocks = [header, render_incidents(incidents, max_rows=max_rows,
                                       metering=metering)]
    artifacts: Dict[str, str] = {}
    json_path = params.get("json")
    if json_path:
        directory = os.path.dirname(json_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"incidents": payloads, "metering": metering},
                fh, indent=2, sort_keys=True, default=str,
            )
            fh.write("\n")
        artifacts["incidents_json"] = json_path
    return ExperimentResult(
        spec=spec, blocks=blocks, data=incidents, artifacts=artifacts,
        incidents=payloads,
    )
