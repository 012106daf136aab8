"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check the parts a timing cannot: that the correctness gate catches a
wrong jsonl, and that the layer tracer leaves the package as it found it.
"""
import importlib
import json
import sys

import pytest

import run
from tracer import PACKAGE, PROBES, Tracer, layer_metrics
from workloads import WORKLOADS, WOLSTENHOLME_PRIME

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def scan_output(tmp_path_factory):
    """The canonical scan window's jsonl, produced by the real CLI."""
    workload = WORKLOADS["scan_cor1second"]
    window = workload.window(0)
    out = tmp_path_factory.mktemp("scan") / "scan.jsonl"
    rep = run.spawn(
        [sys.executable, "-m", "wolstenholme.cli", *window.argv(str(out))], 300)
    assert rep["exit"] == 0 and rep["rss_mb"] > 0 and rep["speed_factor"] > 0
    return workload, window, out


def _judge(workload, window, path):
    reference = json.loads((run.HERE / "reference.json").read_text())
    records, digest = run.load_records(path)
    return run.judge(workload, window,
                     reference[workload.name][window.label], 0, records, digest)


def test_reference_output_passes_the_gate(scan_output):
    verdict = _judge(*scan_output)
    assert verdict["failed"] == 0 and verdict["problems"] == []
    assert verdict["ops"] == len(scan_output[1].primes)


@pytest.mark.parametrize("field, old, new", [
    # an unflagged prime's valuation: only the byte digest can see this
    ("residual_valuation", 6, 5),
    # the flag on 16843 itself: the semantic gate sees it too
    ("pass", True, False),
])
def test_tampered_jsonl_fails_every_operation(scan_output, tmp_path, field, old, new):
    workload, window, path = scan_output
    records = [json.loads(line) for line in path.read_text().splitlines()]
    target = next(r for r in records if r[field] == old
                  and (field != "pass" or r["p"] == WOLSTENHOLME_PRIME))
    target[field] = new
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in records))
    verdict = _judge(workload, window, tampered)
    assert verdict["problems"]
    assert verdict["failed"] == verdict["ops"] > 0  # failed_frac rises to 1


def test_nonzero_exit_fails_the_repetition(scan_output):
    workload, window, path = scan_output
    records, digest = run.load_records(path)
    verdict = run.judge(workload, window, None, 1, records, digest)
    assert verdict["failed"] == verdict["ops"] == len(window.primes)


def _bindings():
    for _, bindings in PROBES.values():
        for module_name, attr in bindings:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            yield module, attr, getattr(module, attr)


def test_tracer_restores_every_binding(tmp_path):
    before = list(_bindings())
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(getattr(m, a) is not f for m, a, f in before)
            from wolstenholme import cli
            out = tmp_path / "out.jsonl"
            assert cli.main(["verify", "--checks", "lemma2a_p5,glaisher_p4",
                             "--primes", "11..40", "--output", str(out)]) == 0
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(m, a) is f for m, a, f in before)
    assert tracer.missing == []
    assert tracer.calls["checks.run_check"] == 2 * 8  # 8 primes in [11, 40)
    assert tracer.calls["harmonic.power_sum"] > 0


def test_missing_binding_is_reported_not_raised():
    probes = dict(PROBES)
    probes["harmonic.power_sum"] = ("span", [("harmonic", "no_such_kernel"),
                                             ("no_such_module", "power_sum_raw")])
    tracer = Tracer(probes)
    with tracer.installed():
        pass
    assert tracer.missing == ["harmonic.no_such_kernel", "no_such_module.power_sum_raw"]
    snapshot = {**tracer.snapshot(), "check_ids": ["lemma1_p4"]}
    metrics, missing = layer_metrics(
        [snapshot], ["harmonic.power_sum_passes", "harmonic.sweep_calls",
                     "checks.lemma1_p4_s", "checks.retired_check_s"], probes)
    assert missing == ["harmonic.power_sum_passes", "checks.retired_check_s"]
    assert metrics["harmonic.power_sum_passes"] == 0
