"""Smoke test for the repo benchmark: ``pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths = tests``): the full smoke pass builds every
workload twice and takes about two minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from benchmarks.e2e import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*args, cwd=ROOT, entry=None):
    entry = entry or os.path.join(ROOT, "benchmarks", "e2e", "__main__.py")
    return subprocess.run(
        [sys.executable, entry, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900,
    )


def test_contract_shape():
    spec = contract()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert sorted(w) == ["name", "why"] and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    names += [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) >= 50


def test_stream_is_a_function_of_the_seed():
    from benchmarks.e2e.streams import make_plan
    from benchmarks.e2e.workloads import WORKLOADS, build_instance

    churn, served = WORKLOADS["churn_ft4"], WORKLOADS["serve_churn_ft4"]
    inputs = build_instance(churn, with_runner=False)
    first = make_plan(churn, inputs, 13)
    assert first.sha256() == make_plan(churn, inputs, 13).sha256()
    assert first.sha256() != make_plan(churn, inputs, 14).sha256()
    # The control and the served workload see the identical stream.
    assert first.sha256() == make_plan(served, inputs, 13).sha256()
    assert len(first.units) == 128 and len(first.links) == 7
    keys = [op.remove or op.install.key for unit in first.units for op in unit[:1]]
    assert len(set(keys)) == len(keys), "units must not share a rule"


def test_smoke_run_of_every_workload():
    done = run_cli("--smoke")
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    spec = contract()
    for w in spec["workloads"]:
        assert f"== {w['name']} " in done.stdout
    assert "0 failed ops" in done.stdout.splitlines()[-1]


def test_driver_line_for_one_workload():
    spec = contract()
    done = run_cli("--workload", "churn_ft4", "--seed", "5", "--seconds", "4",
                   "--trace", "0")
    assert done.returncode == 0, done.stderr[-4000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "e2e"), tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = run_cli("--workload", "churn_ft4", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path,
                   entry=str(tmp_path / "benchmarks" / "e2e" / "__main__.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()
