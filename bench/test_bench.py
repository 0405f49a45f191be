"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

Two back-to-back runs of each workload on one seed must print identical
equivalence digests and pass every correctness check.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, random_presentation  # noqa: E402

DIGEST_KEYS = ("combined_digest", "replay_digests", "feasible_counts",
               "feasible_counts_digest", "relations_removed")


def run_bench(workload, seed, cwd, trace=0):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace)], capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_back_to_back_runs_agree(workload):
    root = os.path.dirname(HERE)
    digests = []
    for _ in range(2):
        out = run_bench(workload, 3, root)
        assert out.returncode == 0, out.stderr
        info, result = [json.loads(x) for x in out.stdout.splitlines()[-2:]]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        digests.append({k: info["info"][k] for k in DIGEST_KEYS
                        if k in info["info"]})
    assert digests[0] == digests[1]
    assert digests[0]["combined_digest"]


def test_trace_counts_every_move():
    root = os.path.dirname(HERE)
    out = run_bench("check_corpus", 0, root, trace=1)
    assert out.returncode == 0, out.stderr
    info, result = [json.loads(x) for x in out.stdout.splitlines()[-2:]]
    assert info["info"]["binding_mismatches"] == {}
    assert result["metrics"]["tietze.apply_move.calls"]["value"] > 0


def test_generated_inputs_follow_the_seed():
    texts = [random_presentation(random.Random(5)) for _ in range(2)]
    assert texts[0] == texts[1]
    assert texts[0] != random_presentation(random.Random(6))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    out = run_bench("check_corpus", 0, str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()
