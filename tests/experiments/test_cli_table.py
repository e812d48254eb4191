"""The CLI is generated from ``api.REGISTRY`` — and lost nothing.

``CLI_TABLE`` was recorded on the commit before the generation landed
(f881313, hand-written ``sub.add_parser`` blocks): every experiment
subcommand and every flag, each with the ``ExperimentSpec`` the runner
built from it.  Two of its rows pinned a flag the experiment accepted
and then ignored (``figure2 --telemetry``, ``faults --json``); a
subcommand now takes only the flags its module reads, so those argv
lines moved to ``REJECTED``, which pins argparse's usage error.  So did
the rows of the six flags the retired shard path took (``scale
--sharded-sizes / --shards / --workers / --shard-inline``, ``postmortem
--shards / --shard-inline``), and ``scale --window``: every scale run
uses a one-second batch window.
"""

import pytest

from repro.experiments import runner
from repro.experiments.api import REGISTRY, ExperimentResult, ExperimentSpec

# (argv, name, seed, params, telemetry_path)
CLI_TABLE = [
    ("figure2", "figure2", None, {}, None),
    ("figure2 --seed 3", "figure2", 3, {}, None),
    ("figure4", "figure4", None, {}, "artifacts/figure4-telemetry.jsonl"),
    ("figure4 --seed 17 --json out.json --telemetry t/f4.jsonl",
     "figure4", 17, {"json": "out.json"}, "t/f4.jsonl"),
    ("figure4 --no-telemetry", "figure4", None, {}, None),
    ("figure5", "figure5", None, {}, "artifacts/figure5-telemetry.jsonl"),
    ("figure5 --telemetry x.jsonl --no-telemetry", "figure5", None, {}, None),
    ("sync-overhead", "sync-overhead", None, {"clients": 4}, None),
    ("sync-overhead --clients 8", "sync-overhead", None, {"clients": 8}, None),
    ("emergency", "emergency", None, {}, None),
    ("takeover", "takeover", None, {"trials": 5}, None),
    ("takeover --trials 3 --seed 9", "takeover", 9, {"trials": 3}, None),
    ("qos", "qos", None, {}, None),
    ("capacity", "capacity", None, {}, None),
    ("gcs", "gcs", None, {}, None),
    ("faults", "faults", None, {}, None),
    ("chaos", "chaos", None, {"plans": 20},
     "artifacts/chaos-telemetry.jsonl"),
    ("chaos --plans 5 --seed 1000 --no-telemetry",
     "chaos", 1000, {"plans": 5}, None),
    ("ablations", "ablations", None, {}, None),
    ("scale", "scale", None, {}, "artifacts/scale-telemetry.jsonl"),
    ("scale --sizes 100,200 --flyweight-sizes 20000 --wall-budget 5 "
     "--duration 6 --benchmark-json x.json",
     "scale", None,
     {"benchmark_json": "x.json", "duration": 6.0,
      "flyweight_sizes": (20000,), "sizes": (100, 200),
      "wall_budget": 5.0},
     "artifacts/scale-telemetry.jsonl"),
    ("placement", "placement", None, {},
     "artifacts/placement-telemetry.jsonl"),
    ("placement --clients 4", "placement", None, {"clients": 4},
     "artifacts/placement-telemetry.jsonl"),
    ("placement --strategies static,markov --titles 12 --flash 2 "
     "--duration 30 --benchmark-json p.json --telemetry p.jsonl",
     "placement", None,
     {"benchmark_json": "p.json", "duration": 30.0, "flash": 2,
      "strategies": "static,markov", "titles": 12},
     "p.jsonl"),
    ("matrix", "matrix", None, {}, None),
    ("matrix --preset gate --workers 2 --benchmark-json m.json",
     "matrix", None,
     {"benchmark_json": "m.json", "preset": "gate", "workers": 2}, None),
    ("postmortem", "postmortem", None, {},
     "artifacts/postmortem-telemetry.jsonl"),
    ("postmortem --scenario wan --duration 40", "postmortem", None,
     {"duration": 40.0, "scenario": "wan"},
     "artifacts/postmortem-telemetry.jsonl"),
    ("postmortem --scale 2000 --no-telemetry", "postmortem", None,
     {"n": 2000, "source": "scale"}, None),
    ("postmortem --from-export run.jsonl.gz --since 30 --until 60 "
     "--max-rows 10 --json inc.json",
     "postmortem", None,
     {"export": "run.jsonl.gz", "json": "inc.json", "max_rows": 10,
      "since": 30.0, "until": 60.0},
     "artifacts/postmortem-telemetry.jsonl"),
]

#: Flags whose experiment never reads them: rejected, not ignored.
REJECTED = [
    "figure2 --seed 3 --telemetry ignored.jsonl",
    "faults --json f.json",
    "gcs --json x.json",
    "sync-overhead --no-telemetry",
    "trace --json x.json",
    "report run.jsonl --telemetry x.jsonl",
    # The shared-nothing shard path's flags, gone with it.
    "scale --sharded-sizes 1000 --no-telemetry",
    "scale --shards 2 --no-telemetry",
    "scale --workers 3 --no-telemetry",
    "scale --shard-inline --no-telemetry",
    "postmortem --scale 2000 --shards 2",
    "postmortem --scale 2000 --shard-inline --no-telemetry",
    # One batch window for every scale run.
    "scale --window 0.5 --no-telemetry",
]

#: Postmortem flags its chosen source never reads: argparse takes them
#: (another source reads each), ``postmortem.run`` refuses them with a
#: ``ServiceError`` naming the flag before anything is simulated, and the
#: CLI prints that as one line and exits 2.
REJECTED_BY_SOURCE = [
    ("postmortem --since 3 --no-telemetry", "--since"),
    ("postmortem --scale 200 --until 3 --no-telemetry", "--until"),
    ("postmortem --from-export r.jsonl --duration 5", "--duration"),
    ("postmortem --scenario wan --scale 200 --no-telemetry", "--scale and --scenario"),
    ("postmortem --scenario lan --from-export r.jsonl", "--from-export and --scenario"),
    ("postmortem --scale 200 --from-export r.jsonl", "--from-export and --scale"),
]

#: The parent's 22 subcommands: 16 experiments and the six tools.
TOOLS = {"all", "profile", "trace", "report", "watch", "gate"}
EXPERIMENT_SUBCOMMANDS = {
    "figure2", "figure4", "figure5", "sync-overhead", "emergency",
    "takeover", "qos", "capacity", "gcs", "faults", "chaos", "ablations",
    "scale", "placement", "matrix", "postmortem",
}


def _subcommands():
    parser = runner.build_parser()
    return next(
        action for action in parser._actions if action.dest == "experiment"
    ).choices


@pytest.mark.parametrize(
    "argv,name,seed,params,telemetry_path",
    CLI_TABLE,
    ids=[row[0] for row in CLI_TABLE],
)
def test_argv_builds_the_recorded_spec(
    argv, name, seed, params, telemetry_path, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # the default artifact directory is made
    args = runner.build_parser().parse_args(argv.split())
    assert runner._spec_from_args(args.experiment, args) == ExperimentSpec(
        name=name, seed=seed, params=params, telemetry_path=telemetry_path
    )


@pytest.mark.parametrize("argv", REJECTED)
def test_an_ignored_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner.build_parser().parse_args(argv.split())
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", REJECTED_BY_SOURCE)
def test_a_flag_its_source_ignores_is_rejected(
    argv, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # the default artifact directory is made
    # postmortem.run raises ServiceError; the CLI prints it as one line.
    assert runner.main(argv.split()) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith("repro-vod: error: ") and flag in line


#: A population or duration no run can have, and what its error names.
BAD_PARAMETERS = [
    ("scale --sizes 0", "n_viewers=0"),
    ("scale --sizes -3", "n_viewers=-3"),
    ("scale --sizes 2 --flyweight-sizes 0 --duration 4", "n_viewers=0"),
    ("placement --titles 0", "titles=0"),
    ("placement --clients 0", "clients=0"),
    ("placement --clients -1", "clients=-1"),
    ("placement --flash -1", "flash=-1"),
    ("placement --duration 0", "duration=0"),
]


@pytest.mark.parametrize("argv,named", BAD_PARAMETERS)
def test_a_bad_population_or_duration_is_one_error_line(
    argv, named, tmp_path, monkeypatch, capsys
):
    """Not a traceback, not a silent default, not an empty run."""
    monkeypatch.chdir(tmp_path)  # the default artifact directory is made
    assert runner.main(argv.split()) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert line.startswith("repro-vod: error: ") and named in line


def test_table_covers_every_experiment_subcommand():
    assert {row[1] for row in CLI_TABLE} == EXPERIMENT_SUBCOMMANDS


def test_subcommands_are_the_parents_22():
    subcommands = _subcommands()
    assert set(subcommands) == EXPERIMENT_SUBCOMMANDS | TOOLS
    assert len(subcommands) == 22
    assert set(REGISTRY) <= set(subcommands)
    target = next(
        action for action in subcommands["profile"]._actions
        if action.dest == "target"
    )
    assert list(target.choices) == sorted(REGISTRY)


def test_all_runs_the_parents_sequence_one_file_per_experiment(
    tmp_path, monkeypatch, capsys
):
    """``all --json P --telemetry P`` used to hand every experiment the
    same two paths, so figure5 wrote over figure4's files."""
    monkeypatch.chdir(tmp_path)
    specs = []

    def fake_run(spec):
        specs.append(spec)
        return ExperimentResult(spec=spec, blocks=[spec.name])

    monkeypatch.setattr(runner, "run", fake_run)
    assert runner.main(
        ["all", "--seed", "5", "--json", "out.json", "--telemetry", "t.jsonl"]
    ) == 0
    capsys.readouterr()
    assert [spec.name for spec in specs] == [
        "figure2", "figure4", "figure5", "sync-overhead", "emergency",
        "takeover", "qos", "faults", "ablations",
    ]
    assert {spec.seed for spec in specs} == {5}
    by_name = {spec.name: spec for spec in specs}
    assert by_name["figure4"].params == {"json": "out-figure4.json"}
    assert by_name["figure5"].params == {"json": "out-figure5.json"}
    assert by_name["figure4"].telemetry_path == "t-figure4.jsonl"
    assert by_name["figure5"].telemetry_path == "t-figure5.jsonl"
    assert by_name["figure2"].telemetry_path is None
    # Only the experiments that write a JSON dump are handed a path.
    assert by_name["figure2"].params == {}
    assert by_name["faults"].params == {}
