"""Tests for the pass/fail predicates every runtime gate shares.

Each result kind defines one ``*_violations(record)`` predicate next to
the code that produces the record; the ``runtime`` CLI commands, the
runtime bench and ``benchmarks/check_runtime_regression.py`` all gate
through them.  These tests pin that contract three ways:

* the committed ``BENCH_runtime.json`` passes the regression checker;
* each absolute gate, broken on a deep copy of that baseline, yields
  exactly one problem, and the problem names the broken row;
* each CLI command's exit code agrees with its predicates on stubbed
  results, passing and failing.
"""

import argparse
import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis import costbreakdown
from repro.analysis.costbreakdown import CostReport, CostRow, cost_violations
from repro.analysis.timeshare import collapse_violations, overhead_collapse
from repro.runtime import chaos, collectives, demo, membership
from repro.runtime.chaos import ChaosConfig, ChaosResult, chaos_violations
from repro.runtime.collectives import (
    collective_op_violations,
    crossover_violations,
    partition_violations,
)
from repro.runtime.demo import add_runtime_subparsers
from repro.runtime.loadgen import (
    AuditReport,
    fabric_collapse_violations,
    load_violations,
    overload_retention_violations,
    overload_violations,
    speedup_violations,
)
from repro.runtime.membership import (
    member_flatness_violations,
    member_violations,
)
from repro.runtime.runner import journey_violations, trace_violations

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
COMMITTED = json.loads((BENCH_DIR / "BENCH_runtime.json").read_text())


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_runtime_regression", BENCH_DIR / "check_runtime_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed(section):
    return copy.deepcopy(COMMITTED[section])


def _set(**fields):
    return lambda record: record.update(fields)


def _set_in(key, **fields):
    return lambda record: record[key].update(fields)


def _drop_row(term):
    return lambda record: record["rows"].pop(term)


def _set_share(feature, share):
    return lambda record: record["breakdown"]["features"][feature].update(
        share=share)


#: One entry per absolute gate: (payload section, row key, breakage);
#: a ``None`` key breaks the section itself.  Each breakage must trip
#: exactly that gate and nothing else.
PERTURBATIONS = {
    "reliability-savings": ("reliability", "bulk_selective_repeat",
                            _set(selective_repeat_savings=0.3)),
    "reliability-acks": ("reliability", "ordered_ack_coalescing",
                         _set(acks_per_data=0.6)),
    "protocol-acks": ("protocols", "finite/cm5",
                      _set_in("wire", acks_per_data=0.6)),
    "protocol-cr-machinery": ("protocols", "indefinite/cr",
                              _set_share("in_order", 0.1)),
    "trace-ceiling": ("trace", None, _set(trace_overhead_pct=150.0)),
    "obs-coverage": ("obs", "obs/cm5", _set(journey_coverage=0.9)),
    "obs-stage-error": ("obs", "obs/cr", _set(worst_stage_error=0.2)),
    "obs-ceiling": ("obs", "obs/cm5", _set(journey_overhead_pct=200.0)),
    "fabric-incomplete": ("fabric", "cm5/p8", _set(completed=False)),
    "fabric-lost": ("fabric", "cm5/p8", _set(lost_messages=1)),
    "fabric-corrupt": ("fabric", "cm5/p8", _set(corrupt_messages=2)),
    "fabric-cr-machinery": ("fabric", "cr/p8",
                            _set(ordering_fault_share=0.1)),
    "fabric-collapse": ("fabric", "cm5/p8", _set(ordering_fault_share=0.0)),
    "fabric-acks": ("fabric", "cm5/p8", _set(acks_per_data=0.6)),
    "overload-incomplete": ("overload", "overload/cm5/10x",
                            _set(completed=False)),
    "overload-audit": ("overload", "overload/cm5/10x",
                       _set_in("audit", violations=3)),
    "overload-reorder": ("overload", "overload/cm5/10x",
                         _set_in("peaks", reorder_parked=300)),
    "overload-buffer": ("overload", "overload/cm5/10x",
                        _set_in("peaks", buffered_bytes=4096)),
    "overload-tracked": ("overload", "overload/cm5/10x",
                         _set_in("peaks", tracked=40)),
    "overload-retention": ("overload", "overload/cm5/10x",
                           _set(throughput_msgs_per_s=100.0)),
    "chaos-audit": ("chaos", "partition-heal/cm5",
                    _set_in("audit", violations=1)),
    "chaos-errors": ("chaos", "partition-heal/cm5", _set(errors=["boom"])),
    "chaos-missed": ("chaos", "crash-restart/cm5",
                     _set(detection_latency_s=None)),
    "chaos-slow": ("chaos", "crash-restart/cm5",
                   _set(detection_latency_s=0.5)),
    "chaos-false-dead": ("chaos", "latency-spike-no-false-dead/cr",
                         _set(false_dead=["p03"])),
    "chaos-unrefuted": ("chaos", "latency-spike-no-false-dead/cr",
                        _set(refutations=0)),
    "member-missed": ("member", "cm5/p8", _set(detection_latency_s=None)),
    "member-slow": ("member", "cm5/p8", _set(detection_latency_s=0.5)),
    "member-false-dead": ("member", "cm5/p8", _set(false_dead=["p03"])),
    "member-control-bound": ("member", "cm5/p8",
                             _set(control_frames_per_peer_per_period=19.0)),
    "member-control-missing": ("member", "cm5/p8",
                               _set(control_bound_per_period=None)),
    "member-flatness": ("member", "cm5/p64",
                        _set(control_frames_per_peer_per_period=7.0)),
    "member-silent": ("member", "cm5/p8",
                      _set(control_frames_per_peer_per_period=0.0)),
    "coll-incomplete": ("coll", "coll/broadcast/cm5", _set(completed=False)),
    "coll-dirty": ("coll", "coll/gather/cr", _set(audit_clean=False)),
    "coll-no-crossover": ("coll", "coll/crossover",
                          _set(crossover_words=None)),
    "coll-eager-lost": ("coll", "coll/crossover",
                        _set(eager_wins_smallest=False)),
    "coll-rendezvous-lost": ("coll", "coll/crossover",
                             _set(rendezvous_wins_largest=False)),
    "coll-not-cut": ("coll", "coll/partition/cm5",
                     _set(healed_in_flight=False)),
    "coll-partition-dirty": ("coll", "coll/partition/cr",
                             _set(all_clean=False)),
    "cost-span": ("cost", "cost/cm5",
                  _set_in("rows", span_disabled={"ns_per_op": 1e6})),
    "cost-tracer": ("cost", "cost/cr",
                    _set_in("rows", tracer_emit_disabled={"ns_per_op": 1e6})),
    "cost-batch": ("cost", "cost/cm5",
                   _set_in("rows", batch_encode_per_frame={"ns_per_op": 1e6})),
    "cost-missing": ("cost", "cost/cr", _drop_row("span_disabled")),
}


def perturbed(name):
    """A deep copy of the committed payload with one gate broken."""
    section, key, breakage = PERTURBATIONS[name]
    payload = copy.deepcopy(COMMITTED)
    breakage(payload[section] if key is None else payload[section][key])
    return payload


def test_committed_baseline_passes(checker):
    assert checker.check(COMMITTED, COMMITTED) == []


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_each_gate_reports_its_row(checker, name):
    section, key, _breakage = PERTURBATIONS[name]
    problems = checker.check(COMMITTED, perturbed(name))
    assert len(problems) == 1, problems
    assert (key or section) in problems[0], problems


def test_speedup_gate_reads_the_committed_baseline(checker):
    """The overhaul's 5x gate: the bench applies it to the fresh cm5/p2
    row, the checker to the committed baseline's, through one predicate."""
    payload = copy.deepcopy(COMMITTED)
    row = payload["fabric"]["cm5/p2"]
    assert speedup_violations(row) == []
    row["speedup_vs_pre_overhaul"] = 4.3        # below the 5x gate
    problems = checker.check(payload, payload)
    assert len(problems) == 1, problems
    assert "cm5/p2" in problems[0] and "5.0x" in problems[0], problems
    assert problems[0].endswith(speedup_violations(row)[0])


# -- the CLI commands gate through the same predicates ---------------------


class _Stub:
    """A measurement result that records as a fixed row."""

    def __init__(self, record):
        self.record = record

    def to_record(self):
        return copy.deepcopy(self.record)

    def __str__(self):
        return "stubbed result"


def _async(value):
    async def stub(*_args, **_kwargs):
        return copy.deepcopy(value)
    return stub


def chaos_result(false_dead):
    """A latency-spike chaos result: clean audit, nobody crashed."""
    return ChaosResult(
        scenario="latency-spike-no-false-dead", config=ChaosConfig(mode="cr"),
        completed=True, wall_ns=1, broken_lanes=[],
        audit=AuditReport(offered=4, delivered=4, duplicates=0,
                          misordered=0, checksum_failures=0, missing=0,
                          missing_on_broken=0, broken_lanes=0),
        detection_latency=None, detection_expected=False,
        detection_bound=5.15, feature_ns={}, wire={}, detector_counts={},
        recoveries=0, refutations=0 if false_dead else 2,
        false_dead=list(false_dead), refutation_expected=True,
    )


def run_cli(argv):
    parser = argparse.ArgumentParser()
    add_runtime_subparsers(parser)
    args = parser.parse_args(argv)
    return args.func(args)


def test_chaos_cli_fails_a_spike_with_false_dead_verdicts(monkeypatch):
    """The chaos CLI used to skip the refutation gate and pass this."""
    monkeypatch.setattr(chaos, "run_chaos",
                        _async(chaos_result(false_dead=["p03"])))
    assert run_cli(["chaos", "--scenario", "latency-spike-no-false-dead",
                    "--mode", "cr"]) == 1


def case_demo(monkeypatch, broken):
    real = demo.measure_live
    runs = []

    def measure_live(protocol, mode, **kwargs):
        # Broken: the "CR" run is really a second CM-5 run.
        runs.append(real(protocol, mode="cm5" if broken else mode, **kwargs))
        return runs[-1]

    monkeypatch.setattr(demo, "measure_live", measure_live)

    def expected():
        shares = overhead_collapse(runs[0].breakdown(), runs[1].breakdown())
        return collapse_violations("indefinite",
                                   shares["cm5_ordering_fault_share"],
                                   shares["cr_ordering_fault_share"])
    return ["demo", "--packets", "8", "--reorder-rate", "0.1"], expected


def case_load(monkeypatch, broken):
    rows = committed("fabric")
    if broken:
        rows["cm5/p8"]["corrupt_messages"] = 2
    monkeypatch.setattr(
        demo, "measure_load",
        lambda config, recorder=None: _Stub(
            rows[f"{config.mode}/p{config.peers}"]))
    cell = [rows["cm5/p8"], rows["cr/p8"]]
    return ["load", "--peers", "8", "--smoke"], lambda: (
        [p for row in cell for p in load_violations(row)]
        + fabric_collapse_violations(cell))


def case_overload(monkeypatch, broken):
    rows = committed("overload")
    if broken:
        rows["overload/cm5/10x"]["peaks"]["tracked"] = 40
    monkeypatch.setattr(demo, "sweep_overload",
                        lambda *_a, **_k: [_Stub(r) for r in rows.values()])
    return ["load", "--overload", "--smoke"], lambda: (
        [p for row in rows.values() for p in overload_violations(row)]
        + overload_retention_violations(rows.values()))


def case_chaos(monkeypatch, broken):
    result = chaos_result(false_dead=["p03"] if broken else [])
    monkeypatch.setattr(chaos, "run_chaos", _async(result))
    return (["chaos", "--scenario", "latency-spike-no-false-dead",
             "--mode", "cr"],
            lambda: chaos_violations(result.to_record()))


def case_member(monkeypatch, broken):
    rows = committed("member")
    if broken:
        rows["cm5/p64"]["false_dead"] = ["p03"]
    soak = {"ok": True, "phases": {}, "problems": [], "events": []}
    monkeypatch.setattr(membership, "measure_membership_soak",
                        lambda *_a, **_k: copy.deepcopy(soak))
    monkeypatch.setattr(
        membership, "measure_membership",
        lambda count, mode, config: copy.deepcopy(rows[f"{mode}/p{count}"]))
    scale = [rows["cm5/p8"], rows["cm5/p64"]]
    return (["member", "--mode", "cm5", "--scale-peers", "8", "64"],
            lambda: ([p for row in scale for p in member_violations(row)]
                     + member_flatness_violations(scale)))


def case_collect(monkeypatch, broken):
    rows = committed("coll")
    if broken:
        rows["coll/partition/cm5"]["all_clean"] = False
    ops = [rows[f"coll/{op}/cm5"]
           for op in ("broadcast", "scatter", "gather", "all_reduce")]
    monkeypatch.setattr(collectives, "measure_crossover",
                        _async({**rows["coll/crossover"], "records": []}))
    monkeypatch.setattr(collectives, "measure_collective_ops",
                        _async({"rows": ops, "records": []}))
    monkeypatch.setattr(
        collectives, "run_broadcast_partition",
        _async({**rows["coll/partition/cm5"], "records": []}))
    return ["collect", "--mode", "cm5", "--smoke"], lambda: (
        crossover_violations(rows["coll/crossover"])
        + [p for row in ops for p in collective_op_violations(row)]
        + partition_violations(rows["coll/partition/cm5"]))


def case_profile(monkeypatch, broken):
    record = committed("cost")["cost/cm5"]
    if broken:
        record["rows"]["span_disabled"]["ns_per_op"] = 1e6
    report = CostReport(
        mode="cm5", payload_words=record["payload_words"],
        batch_frames=record["batch_frames"],
        rows=[CostRow(name, row["ns_per_op"], row["ops"], row["note"])
              for name, row in record["rows"].items()])
    monkeypatch.setattr(costbreakdown, "measure_costs",
                        lambda *_a, **_k: report)
    return ["profile", "--mode", "cm5"], lambda: cost_violations(
        report.to_dict())


def _spy_rows(monkeypatch, name, predicate):
    """Record every (label, row) the CLI hands ``predicate``; the
    expected problems are the predicate re-run over those rows."""
    rows = []

    def spy(label, row):
        rows.append((label, copy.deepcopy(row)))
        return predicate(label, row)

    monkeypatch.setattr(demo, name, spy)
    return lambda: [p for label, row in rows for p in predicate(label, row)]


#: A small traced run; broken, the tracer's ring holds one event, so no
#: packet lifecycle or message journey can be rebuilt from it.
_TRACED = ["--packets", "2", "--packet-words", "4", "--drop-rate", "0"]


def case_trace(monkeypatch, broken):
    expected = _spy_rows(monkeypatch, "trace_violations", trace_violations)
    return (["trace", *_TRACED]
            + (["--trace-capacity", "1"] if broken else [])), expected


def case_journey(monkeypatch, broken):
    expected = _spy_rows(monkeypatch, "journey_violations",
                         journey_violations)
    return (["journey", *_TRACED]
            + (["--trace-capacity", "1"] if broken else [])), expected


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "failing"])
@pytest.mark.parametrize("case", [
    case_demo, case_load, case_overload, case_chaos, case_member,
    case_collect, case_profile, case_trace, case_journey,
], ids=lambda case: case.__name__[len("case_"):])
def test_cli_exit_code_agrees_with_predicates(monkeypatch, capsys, case,
                                              broken):
    argv, expected = case(monkeypatch, broken)
    code = run_cli(argv)
    problems = expected()
    assert bool(problems) == broken, problems
    assert code == (1 if problems else 0)
    printed = capsys.readouterr().out
    for problem in problems:
        assert problem in printed
