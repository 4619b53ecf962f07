"""Tests of the benchmark itself: seeded inputs repeat byte for byte, every
reference check rejects a perturbed result, and the printed metric names
are the ones BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_one_seed_gives_byte_identical_inputs(tmp_path):
    for k in range(2):
        gen.write_corpus(gen.corpus(7), str(tmp_path / f"corpus{k}"))
        workloads.make("cascade_dense", 7, str(tmp_path / f"cascade{k}"))
    assert _files(tmp_path / "corpus0") == _files(tmp_path / "corpus1")
    assert _files(tmp_path / "cascade0") == _files(tmp_path / "cascade1")
    assert gen.corpus(7) != gen.corpus(8)
    assert gen.cascade_params(7) != gen.cascade_params(8)
    assert gen.chain_instance(7, 0) == gen.chain_instance(7, 0) != gen.chain_instance(8, 0)


def test_corpus_covers_every_signal_kind_and_mutation():
    entries = gen.corpus(3)
    text = "".join(e["text"] for e in entries)
    for kind in gen.SIGNAL_KINDS:
        assert f"= {kind}(" in text
    errors = [e for e in entries if "expect_error" in e["spec"]]
    assert len(errors) == len(gen.MUTATIONS)
    assert 0.05 <= len(errors) / len(entries) <= 0.15


def _coherent(alpha: complex, cutoff: int) -> np.ndarray:
    amps = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    return amps / np.linalg.norm(amps)


def test_chain_check_rejects_perturbed_results():
    alpha = 0.3 - 0.2j
    psi = _coherent(alpha, gen.CHAIN_CUTOFF)
    rho = np.outer(psi, psi.conj())
    good = {"l_terms": 0, "rho_T": rho, "psi_T": psi, "states": [rho], "distance": 0.0,
            "outputs": np.zeros((gen.CHAIN_PROBES + 1, 1))}
    assert refs.check_chain(good, alpha) == []
    assert refs.check_chain(good, 1.01 * alpha)
    for key, bad in (("l_terms", 1), ("distance", 2e-6), ("states", [1.001 * rho]),
                     ("outputs", np.full((21, 1), 1e-6))):
        assert refs.check_chain(dict(good, **{key: bad}), alpha), key


def _cascade_csv(times, alphas, purity) -> str:
    rows = ["t,a:c1_re,a:c1_im,a:c2_re,a:c2_im,trace_drift,purity,leak"]
    for k, t in enumerate(times):
        vals = [t, alphas[0][k].real, alphas[0][k].imag, alphas[1][k].real,
                alphas[1][k].imag, 0.0, purity[k], 0.0]
        rows.append(",".join("%.12e" % v for v in vals))
    return "\n".join(rows) + "\n"


def test_cascade_check_rejects_perturbed_results():
    p = gen.cascade_params(4)
    times = np.linspace(0.0, gen.CASCADE_HORIZON, 101)
    alphas = refs.cascade_amplitudes(p, times)
    ones = np.ones(times.size)
    assert refs.check_cascade(_cascade_csv(times, alphas, ones), times, alphas) == []
    scaled = alphas * np.array([[1.0], [1.01]])
    assert refs.check_cascade(_cascade_csv(times, scaled, ones), times, alphas)
    assert refs.check_cascade(_cascade_csv(times, alphas, ones + 2e-6), times, alphas)
    bad = _cascade_csv(times, alphas, ones).replace("0.000000000000e+00\n", "nan\n", 1)
    assert refs.check_cascade(bad, times, alphas)


def _flip_first_coefficient(report: dict) -> bool:
    """Negate the first real part above 1e-3 in the report's H, L or S."""
    polys = [report["H"]] + report["L"] + [e for row in report["S"] for e in row]
    for poly in polys:
        for term in poly["terms"]:
            for row in term["matrix"]:
                for cell in row:
                    if abs(float(cell[0])) > 1e-3:
                        cell[0] = "%.12e" % -float(cell[0])
                        return True
    return False


def test_report_check_accepts_the_program_and_rejects_a_flipped_coefficient(tmp_path):
    entries = gen.corpus(11)
    paths = gen.write_corpus(entries, str(tmp_path))
    seen = set()
    for e, path in zip(entries, paths):
        spec = e["spec"]
        key = spec["family"] + ("!" if "expect_error" in spec else "")
        if key in seen and "expect_error" not in spec:
            continue
        seen.add(key)
        code, text, err = workloads.run_cli(["reduce", path])
        if "expect_error" in spec:
            assert refs.check_error(code, err, spec["expect_error"]) == [], e["name"]
            assert refs.check_error(None, err, spec["expect_error"])
            assert refs.check_error(code, "", spec["expect_error"])
            continue
        assert code == 0 and refs.check_report(text, spec) == [], e["name"]
        report = json.loads(text)
        assert _flip_first_coefficient(report)
        assert refs.check_report(json.dumps(report), spec), e["name"]
        report = json.loads(text)
        report["validation"]["h_self_adjoint"] = False
        assert refs.check_report(json.dumps(report), spec), e["name"]
    assert len([k for k in seen if not k.endswith("!")]) == len(gen.CORPUS_SCHEDULE)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ([m["name"] for m in bench["end_to_end"]], [m["name"] for m in bench["per_layer"]],
            [w["name"] for w in bench["workloads"]])


def _run(cwd: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_the_declared_ones(trace):
    end_to_end, per_layer, names = _declared()
    assert set(names) <= set(workloads.WORKLOADS)
    proc = _run(ROOT, "--workload", "chain_pulse", "--seed", "1", "--seconds", "0.1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == (per_layer if trace else end_to_end)
    printed = re.findall(r"^metric chain_pulse (\S+) ", proc.stdout, re.M)
    assert set(last["metrics"]) <= set(printed)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "reduce_corpus", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
