"""Running a workload and turning what happened into named metrics.

Every number names its clock.  *Host* metrics are ``time.perf_counter()``
around the timed region only; *virtual* metrics come from ``Simulator.now()``
and repeat exactly.  One run repeats the workload's timed region on a
freshly built deployment with the same seed until ``--seconds`` of timed
host time have passed (at least :data:`MIN_REPETITIONS` times).  The
repetitions must agree on every virtual metric and count; because the code
path is deterministic, host noise is purely additive, so ``ops_per_s`` takes
each stretch of the region from the repetition that ran it fastest
(:func:`fastest_host_seconds`) and the spread between whole repetitions is
reported beside it (``host.rep_spread``).
"""

from __future__ import annotations

import gc
import heapq
import hmac
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.bft.messages import MESSAGE_STATS
from repro.crypto.digest import DIGEST_STATS

from perf import check
from perf.record import OpRecorder, virtual_metrics
from perf.workloads import WORKLOADS, NFSAndrew, Workload

MIN_REPETITIONS = 3

#: A host number is withheld (the workload is ``unresolved``) when the
#: repetitions of one run spread wider than this.
MAX_REP_SPREAD = 0.15


#: Rounds of the calibration loop in one burst (about 2 ms here).
CALIB_BURST_ROUNDS = 3000


def calibration_burst() -> None:
    """A fixed pure-Python loop: heap push/pop, HMAC, dict increments — the
    simulator's own diet, none of its code.  The recorder runs one between
    every two stretches of an untraced repetition and times it."""
    heap: List[int] = []
    counts: Dict[int, int] = {}
    key = b"calibration-key"
    for number in range(CALIB_BURST_ROUNDS):
        heapq.heappush(heap, (number * 7919) % 10007)
        if number % 2:
            heapq.heappop(heap)
        if number % 8 == 0:
            hmac.new(key, b"%d" % number, "sha256").digest()
        counts[number % 97] = counts.get(number % 97, 0) + 1


def calibration(reps: List["Repetition"]) -> Dict[str, float]:
    """The machine's speed during a run, from the calibration bursts between
    the stretches of its repetitions.

    ``floor_s`` is the fastest single burst of the run: what the loop costs
    at the machine's best (some 2 ms window is quiet even in a noisy minute).
    ``burst_s`` is what a burst cost measured exactly the way the workload is
    — the burst after each stretch taken from the repetition that ran it
    fastest.  Their ratio, ``slowdown`` >= 1, says how much slower than its
    own best the machine ran *for this estimator, beside this work*; host
    metrics are divided by it.  This sandbox has phases of a minute or more
    in which everything runs 1.3-1.5x slower and no repetition escapes;
    without the correction a run inside one reads as a 30 % regression."""
    bursts = [rep.bursts for rep in reps]
    if not bursts[0]:
        return {"floor_s": 0.0, "burst_s": 0.0, "slowdown": 1.0}
    floor_s = min(burst for rep_bursts in bursts for burst in rep_bursts)
    burst_s = statistics.mean(min(same) for same in zip(*bursts))
    return {"floor_s": floor_s, "burst_s": burst_s, "slowdown": burst_s / floor_s}


def _sim_events(workload: Workload) -> int:
    clusters = workload.clusters()
    return clusters[0].sim.events_processed if clusters else 0


class Repetition:
    """What one build + warm-up + timed region produced."""

    def __init__(self, workload: Workload, recorder: OpRecorder, tracer=None) -> None:
        gc.collect()
        recorder.reset()
        started = time.perf_counter()
        workload.build()
        workload.warm()
        self.setup_s = time.perf_counter() - started

        before = workload.counters().snapshot()
        messages = MESSAGE_STATS.snapshot()
        digests = DIGEST_STATS.snapshot()
        events = _sim_events(workload)
        mark = recorder.mark()
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        v_start, v_end = workload.run()
        ended = time.perf_counter()
        self.trace = tracer.result() if tracer is not None else None

        attempted, completions, ticks, resumes = recorder.region(mark)
        # Host seconds of each stretch of TICK_EVERY completions, in order,
        # and of the recorder's pause (the calibration burst) after each.
        self.stretches = [
            end - start for start, end in zip([started] + resumes, ticks + [ended])
        ]
        self.bursts = [resume - tick for tick, resume in zip(ticks, resumes)]
        self.host_s = sum(self.stretches)
        self.virtual = virtual_metrics(
            attempted, completions, v_start, v_end, wrong=workload.wrong
        )
        self.counts = workload.counters().diff(before)
        self.counts.update(MESSAGE_STATS.diff(messages))
        self.counts.update(DIGEST_STATS.diff(digests))
        self.counts["sim_events"] = _sim_events(workload) - events
        self.problems = check.verify_outputs(workload)
        # Only the traced repetition is looked at again; the others must not
        # keep their deployments alive (peak RSS is an end-to-end metric).
        self.workload = workload if tracer is not None else None

    def deterministic(self) -> Dict[str, float]:
        """Everything that must repeat exactly for one seed."""
        return {**self.virtual, **{f"count.{k}": v for k, v in self.counts.items()}}


def fastest_host_seconds(reps: List[Repetition]) -> float:
    """Host seconds of the timed region with each stretch of work taken from
    the repetition that ran it fastest.

    Every repetition executes the same op sequence, cut at the same
    completions into stretches of a few tens of milliseconds.  This sandbox
    slows down in bursts of seconds, which often touch every repetition of a
    run somewhere; the sum of per-stretch minima needs each stretch to run
    undisturbed only once."""
    return sum(min(stretch) for stretch in zip(*(rep.stretches for rep in reps)))


def end_to_end(
    reps: List[Repetition], import_s: float, slowdown: float
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of a run (units as in BENCHMARK.json)."""
    virtual = reps[0].virtual  # the repetitions agree on it
    return {
        "ops_per_s": {
            "value": virtual["ops"] / (fastest_host_seconds(reps) / slowdown),
            "unit": "1/s",
        },
        "setup_s": {
            "value": (import_s + statistics.median(rep.setup_s for rep in reps)) / slowdown,
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
        "ops_per_vsec": {"value": virtual["ops_per_vsec"], "unit": "1/vs"},
    }


def rep_spread(reps: List[Repetition]) -> float:
    hosts = [rep.host_s for rep in reps]
    return (statistics.median(hosts) - min(hosts)) / min(hosts)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    untraced: List[Repetition], traced: Repetition
) -> Dict[str, Dict[str, object]]:
    """The per-layer metrics of one traced repetition (counts repeat exactly,
    so they are read from the same repetition as the spans)."""
    tracer = traced.trace
    counts = traced.counts
    ops = max(traced.virtual["ops"], 1)
    fastest = min(rep.host_s for rep in untraced)

    def count(name: str) -> int:
        return counts.get(name, 0)

    def calls(point: str) -> int:
        return tracer.point(point)[0]

    def micros_per_call(*points: str) -> float:
        total_calls = sum(tracer.point(point)[0] for point in points)
        total_s = sum(tracer.point(point)[1] for point in points)
        return _share(total_s, total_calls) * 1e6

    metrics: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer, row in tracer.layer_table().items():
        put(f"{layer}.self_s", row["self_s"], "s")
        put(f"{layer}.calls", row["calls"], "count")

    events = count("sim_events")
    put("sim.events_per_op", events / ops, "1/op")
    put("sim.events_per_s", events / fastest, "1/s")
    put("sim.fired_share", _share(calls("Simulator.step"), calls("Simulator.schedule")), "share")

    sent = count("messages_sent")
    dropped = sum(v for k, v in counts.items() if k.startswith("messages_dropped"))
    put("net.msgs_per_op", sent / ops, "1/op")
    put("net.bytes_per_op", count("bytes_sent") / ops, "B/op")
    put("net.drop_share", _share(dropped, sent), "share")

    put("crypto.macs_per_op", (count("mac_generate") + count("mac_verify")) / ops, "1/op")
    put("crypto.sigs_per_op", (calls("Signer.sign") + calls("SignatureScheme.verify")) / ops, "1/op")
    put("crypto.digests_per_op", (count("digests") + count("digest_combines")) / ops, "1/op")
    put("crypto.key_derivations", count("key_derivations"), "count")

    put("codec.encodes_per_op", count("message_encodes") / ops, "1/op")
    put("codec.encode_bytes_per_op", count("message_encode_bytes") / ops, "B/op")
    put("codec.encodes_per_send", _share(count("message_encodes"), sent), "share")

    put("replica.batch_size_mean", _share(count("batched_requests"), count("pre_prepares_sent")), "req")
    put("replica.view_changes", count("new_views_sent"), "count")
    put("replica.shed_share", _share(count("requests_shed"), count("requests_shed") + count("batched_requests")), "share")
    put("replica.spec_rollback_share", _share(count("spec_batches_rolled_back"), count("spec_batches")), "share")
    put("replica.retransmissions", count("retransmissions"), "count")

    put("client.retransmit_share", _share(count("request_retransmissions"), count("invokes")), "share")
    put("client.readonly_fallback_share", _share(count("read_only_fallbacks"), count("read_only_invokes")), "share")
    put("client.tentative_accept_share", _share(count("tentative_replies_accepted"), count("replies_accepted")), "share")
    # What a client sees, but on wan_soak too sensitive to the fault geometry
    # a seed draws to carry a regression bound (see perf/README.md).
    put("client.latency_p50_vms", traced.virtual["latency_p50_vms"], "vms")
    put("client.latency_p99_vms", traced.virtual["latency_p99_vms"], "vms")
    put("client.max_stall_vms", traced.virtual["max_stall_vms"], "vms")

    checkpoints = count("checkpoints_taken")
    put("statemgr.checkpoints", calls("AbstractStateManager.take_checkpoint"), "count")
    put("statemgr.ckpt_us", micros_per_call("AbstractStateManager.take_checkpoint"), "us")
    put("statemgr.cow_bytes_per_ckpt", _share(count("cow_bytes"), checkpoints), "B")
    put("statemgr.tree_nodes_copied_per_ckpt", _share(count("tree_nodes_copied"), checkpoints), "count")

    durations = [
        duration
        for cluster in traced.workload.clusters()
        for host in cluster.hosts.values()
        for duration in host.recovery_durations()
    ]
    put("statetransfer.recoveries", count("recoveries_completed"), "count")
    put("statetransfer.transfers", count("state_transfers_completed"), "count")
    put("statetransfer.objects_fetched", count("objects_fetched"), "count")
    put("statetransfer.mttr_vs", statistics.mean(durations) if durations else 0.0, "vs")

    kv_execute = "RecordingKV.execute" if calls("RecordingKV.execute") else "KVStateMachine.execute"
    put("service.exec_us", micros_per_call(kv_execute, "BASEService.execute"), "us")
    put("service.absfn_calls", calls("NFSConformanceWrapper.get_obj"), "count")
    put("service.putobjs_calls", calls("NFSConformanceWrapper.put_objs"), "count")
    overhead = 0.0
    if isinstance(traced.workload, NFSAndrew):
        overhead = traced.virtual["virtual_seconds"] / traced.workload.baseline_virtual_seconds()
    put("service.overhead_ratio", overhead, "ratio")

    txns = count("txns_started")
    groups = traced.workload.clusters()
    replicas = len(groups[0].hosts) if groups else 1
    put("txn.commit_share", _share(count("txns_committed"), txns), "share")
    put("txn.lock_conflicts", count("txn_lock_conflicts"), "count")
    put("txn.msgs_per_txn", _share((count("txn_prepares") + count("txn_decides")) / replicas, txns), "1/txn")

    checks = tracer.durations.get("OracleSuite.check_now", [])
    tenth = max(len(checks) // 10, 1)
    put("oracle.us_per_check", micros_per_call("OracleSuite.check_now"), "us")
    put(
        "oracle.late_early_ratio",
        _share(statistics.mean(checks[-tenth:]), statistics.mean(checks[:tenth])) if checks else 0.0,
        "ratio",
    )

    calib = calibration(untraced)
    put("host.calib_s", calib["floor_s"], "s")
    put("host.slowdown", calib["slowdown"], "ratio")
    put("host.rep_spread", rep_spread(untraced), "share")
    put("host.trace_overhead", traced.host_s / fastest, "ratio")
    put("host.unattributed_share", (traced.host_s - tracer.top_s) / traced.host_s, "share")
    return metrics


def _measured_enough(reps: List[Repetition], seconds: float, trace: bool) -> bool:
    if trace:
        # Two untraced repetitions to state the overhead and spread against.
        return len(reps) >= 2
    return len(reps) >= MIN_REPETITIONS and sum(rep.host_s for rep in reps) >= seconds


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    sizes: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Run one workload; returns the detailed result (see perf/README.md)."""
    cls = WORKLOADS[name]
    recorder = OpRecorder(pause=calibration_burst)
    recorder.install()
    tracer = None
    try:
        reps: List[Repetition] = []
        while not _measured_enough(reps, seconds, trace):
            reps.append(Repetition(cls(seed, sizes), recorder))
        calib = calibration(reps)
        result: Dict[str, object] = {
            "workload": name,
            "seed": seed,
            "end_to_end": end_to_end(reps, import_s, calib["slowdown"]),
            "rep_spread": rep_spread(reps),
            "host_s": [rep.host_s for rep in reps],
            "virtual": reps[0].virtual,
            "counts": reps[0].counts,
            "calibration": calib,
            "ops_per_s_uncorrected": reps[0].virtual["ops"] / fastest_host_seconds(reps),
        }
        if trace:
            from perf.trace import Tracer

            tracer = Tracer()
            tracer.install()
            recorder.pause = lambda: None  # a burst would be charged to a layer
            traced = Repetition(cls(seed, sizes), recorder, tracer)
            result["per_layer"] = per_layer(reps, traced)
            result["trace"] = {
                "traced_host_s": traced.host_s,
                "points": {
                    f"{layer}:{point}": {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                    for (layer, point), s in sorted(traced.trace.points.items())
                    if s[0]
                },
                "traceEvents": traced.trace.chrome_events(),
            }
            reps.append(traced)
    finally:
        if tracer is not None:
            tracer.uninstall()
        recorder.uninstall()

    problems = [problem for rep in reps for problem in rep.problems]
    problems += check.repetitions_agree([rep.deterministic() for rep in reps])
    result["problems"] = problems
    result["correct"] = not problems
    result["attempted"] = sum(rep.virtual["attempted"] for rep in reps)
    result["failed"] = sum(rep.virtual["failed"] for rep in reps)
    result["unresolved"] = result["rep_spread"] > MAX_REP_SPREAD
    return result
