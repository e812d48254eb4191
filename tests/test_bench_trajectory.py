"""``BENCH_trajectory.jsonl``: the benchmark's history as a file.

One line per (PR, workload), appended by ``scripts/bench_pairs.py``:
which commits were compared on which seeds, and the parent -> change
median of each end-to-end metric — and, when the pairs were run with
``--layers``, each layer's traced ``self_share`` / ``self_cal_s``.
Append-only, so PR numbers never decrease, and every name in it is one
``BENCHMARK.json`` declares.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


def test_trajectory_parses_and_names_only_what_the_benchmark_declares():
    spec = json.loads(_load("BENCHMARK.json"))
    workloads = {workload["name"] for workload in spec["workloads"]}
    metrics = {metric["name"] for metric in spec["end_to_end"]}
    layer_metrics = {
        metric["name"] for metric in spec["per_layer"]
        if metric["name"].endswith((".self_share", ".self_cal_s"))
    }
    rows = [json.loads(line) for line in _load("BENCH_trajectory.jsonl").splitlines()]
    assert rows, "the trajectory is empty"
    previous_pr, seen = 0, set()
    for row in rows:
        assert row["pr"] >= previous_pr, f"PR {row['pr']} after PR {previous_pr}"
        previous_pr = row["pr"]
        assert row["workload"] in workloads
        assert (row["pr"], row["workload"]) not in seen, "one line per (PR, workload)"
        seen.add((row["pr"], row["workload"]))
        assert row["sha"] and row["parent_sha"] and row["source"]
        assert row["seeds"] and all(isinstance(seed, int) for seed in row["seeds"])
        assert row["metrics"] and set(row["metrics"]) <= metrics
        for cell in row["metrics"].values():
            assert cell["parent"] > 0 and cell["change"] > 0
        if "layers" in row:  # optional: the traced split, complete
            assert set(row["layers"]) == layer_metrics
            for name, cell in row["layers"].items():
                limit = 1.0 if name.endswith(".self_share") else float("inf")
                assert 0 <= cell["parent"] <= limit  # an idle layer reads 0.0
                assert 0 <= cell["change"] <= limit
