"""The replica core's boundary: what ``bft/replica.py`` may not know, and
that a sub-protocol which is off (or not attached) leaves no trace.

The first half reads source: every sub-protocol besides the three-phase core
has one owner module (docs/protocol.md, "Module map"), the core reaches an
owner only through its public methods, and the BFT library imports no
service or tool built on it.  The second half runs clusters.
"""

import ast
from dataclasses import fields
from pathlib import Path

from repro.bft.config import BFTConfig
from repro.bft.fusion import FusedBackupTier
from repro.bft.messages import (
    FetchMeta,
    FetchObject,
    FetchRoot,
    FusionBlock,
    FusionFetch,
    ParityAck,
)
from repro.bft.repair import RepairPolicy
from repro.bft.service import StateMachine
from repro.bft.sharding import sharded_kv_cluster
from repro.bft.testing import encode_get, encode_set, kv_cluster

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
BFT = SRC / "bft"


def _tree(name):
    return ast.parse((BFT / name).read_text(encoding="utf-8"))


def _function_local_imports(tree):
    return [
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_replica_core_has_no_function_local_import():
    assert _function_local_imports(_tree("replica.py")) == []
    assert _function_local_imports(_tree("viewchange.py")) == []


def test_replica_core_does_not_import_the_fused_tier():
    imported = set()
    for node in ast.walk(_tree("replica.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"repro.base.fusion", "repro.bft.fusion"}


def test_replica_core_names_no_fast_path_or_damping_state():
    names = {
        node.attr for node in ast.walk(_tree("replica.py")) if isinstance(node, ast.Attribute)
    }
    leaked = sorted(
        name
        for name in names
        if name.startswith(("_lease", "_damp")) or name == "spec_frames"
    )
    assert leaked == []


#: Packages built on the BFT library: the services and the tools that drive
#: it.  The library serves any ``StateMachine`` and knows none of them.
ABOVE_THE_LIBRARY = ("repro.nfs", "repro.oodb", "repro.explore", "repro.soak", "repro.bench")


def test_the_bft_library_imports_no_service_or_tool():
    """Checked on the source, function-local imports included."""
    imports = []
    for path in sorted(BFT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            imports += [
                f"{path.relative_to(SRC)}:{node.lineno} {module}"
                for module in modules
                if any(module == pkg or module.startswith(pkg + ".") for pkg in ABOVE_THE_LIBRARY)
            ]
    assert imports == []


def test_the_settable_surface_is_pinned():
    """Every field here is a value some caller sets.  A new field needs two
    non-test callers that set different values; a value nothing varies is a
    module constant (``DAMPING_STREAK_MAX``, ``REBOOT_TIME``), and a switch
    that only tests flip is a planted bug (``repro.faults.plant``).
    Deployment settings (replica ids, f, the protocol timers a WAN preset
    scales, the fast-path variants) are the exception: an operator sets
    them, whatever the code base does."""
    assert [field.name for field in fields(BFTConfig)] == [
        "replica_ids",
        "f",
        "checkpoint_interval",
        "log_window",
        "batch_max",
        "max_outstanding",
        "view_change_timeout",
        "status_interval",
        "client_retry",
        "client_retry_max",
        "read_only_timeout",
        "recovery_period",
        "admission_capacity",
        "admission_per_client",
        "pending_ttl",
        "pipeline_depth",
        "speculative_execution",
        "read_leases",
    ]
    assert [field.name for field in fields(RepairPolicy)] == [
        "backoff_initial",
        "backoff_max",
        "deterministic_after",
        "failover_after",
        "scrub_interval",
        "scrub_batch",
    ]


def _is_replica(expr):
    """``replica`` or ``<anything>.replica``."""
    return (isinstance(expr, ast.Name) and expr.id == "replica") or (
        isinstance(expr, ast.Attribute) and expr.attr == "replica"
    )


def _reaches_into_a_replica(target):
    """A write to ``replica._x``, or to any attribute of one of its managers
    (``replica.transfer.active``, ``replica.transfer._awaiting_root``): a
    sibling module reaches an owner through its methods, as the core does."""
    owner = target.value
    return (target.attr.startswith("_") and _is_replica(owner)) or (
        isinstance(owner, ast.Attribute) and _is_replica(owner.value)
    )


def test_no_module_writes_a_private_attribute_of_a_replica():
    for name in ("viewchange.py", "recovery.py", "fusion.py"):
        writes = []
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            writes += [
                f"{name}:{target.lineno} {ast.unparse(target)}"
                for target in targets
                if isinstance(target, ast.Attribute) and _reaches_into_a_replica(target)
            ]
        assert writes == []


def test_state_machine_is_its_upcalls_plus_the_execution_evidence():
    """A service supplies the paper's upcalls; checkpoints, the reply table
    and state transfer are the library's, reached as ``service.manager``.
    Five library calls stay on the class: ``record_reply`` and the three
    ``*_speculation`` calls change execution evidence, so ``RecordingKV``
    overrides them to feed its recorder (``rollback_speculation`` also
    hands the manager ``put_objs``), and ``current_node`` is the state root
    ``repro demo`` and the host-time benchmark's agreement check read."""
    public = sorted(name for name in dir(StateMachine) if not name.startswith("_"))
    assert public == [
        "begin_speculation",
        "check_nondet",
        "commit_speculation",
        "current_node",
        "execute",
        "genesis_root_digest",
        "propose_nondet",
        "put_objs",
        "record_reply",
        "rollback_speculation",
        "save_for_recovery",
    ]


MANAGER_ONLY = {
    "last_recorded",
    "take_checkpoint",
    "discard_checkpoints_below",
    "checkpoint_seqnos",
    "num_levels",
    "root_digest",
    "get_meta",
    "get_object_at",
    "get_leaf",
    "current_children",
    "adopt_leaf_lm",
    "install_fetched",
    "scan_corruption",
    "repair_objects",
}


def _ends_in_service(expr):
    """``service``, ``<anything>.service`` or ``<anything>.service(...)``."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    return (isinstance(expr, ast.Name) and expr.id == "service") or (
        isinstance(expr, ast.Attribute) and expr.attr == "service"
    )


def test_no_module_calls_the_state_manager_through_the_service():
    """Checked on the source, so a call on a path no test runs is caught."""
    paths = sorted(SRC.rglob("*.py"))
    assert BFT / "statetransfer.py" in paths
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno} {ast.unparse(node.func)}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MANAGER_ONLY
        and _ends_in_service(node.func.value)
    ]
    assert calls == []


# -- absent when off ------------------------------------------------------------------


def test_default_config_creates_no_fast_path_or_fusion_counter():
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(20):
        assert client.invoke(encode_set(i % 4, b"v%d" % i)) == b"OK"
        assert client.invoke(encode_get(i % 4), read_only=True) == b"v%d" % i
    cluster.settle()
    off = [
        name
        for name, _value in cluster.total_counters()
        if name.startswith(("spec_", "lease", "leased_", "fusion_", "reads_parked", "parked_"))
    ]
    assert off == []
    assert all(replica.fast_path.parked == {} for replica in cluster.replicas)


class _Outsider:
    """A principal that is neither a replica nor a fused node: ``KeyTable``
    hands it session keys like anyone else."""

    def __init__(self, cluster, node_id):
        self.cluster = cluster
        self.node_id = node_id
        self.received = []
        cluster.network.register(node_id, lambda message, src: self.received.append(message))

    def send(self, dst, message):
        message.auth = self.cluster.keys.make_authenticator(
            self.node_id, [dst], message.signable_bytes()
        )
        self.cluster.network.send(self.node_id, dst, message)


def test_fusion_messages_are_refused_without_a_tier():
    cluster = kv_cluster()
    assert cluster.client("C0").invoke(encode_set(1, b"secret")) == b"OK"
    outsider = _Outsider(cluster, "F0")
    outsider.send("R1", FusionFetch(parity_id="F0", shard=0, seqno=0, slot_width=96))
    outsider.send("R1", ParityAck(parity_id="F0", shard=0, seqno=8))
    cluster.settle()
    counters = cluster.replica("R1").counters
    assert counters.get("fusion_fetches_refused") == 1
    assert counters.get("fusion_acks_ignored") == 1
    assert counters.get("fusion_blocks_served") == 0
    assert outsider.received == []


def test_fusion_fetch_is_served_to_the_tiers_own_nodes_only():
    sharded = sharded_kv_cluster(2)
    tier = FusedBackupTier(sharded)
    tier.attach()
    sharded.sim.run_for(0.5)
    assert tier.ready()
    cluster = sharded.clusters[0]
    # A replica that served the tier's own bootstrap fetch.
    replica = next(r for r in cluster.replicas if r.counters.get("fusion_blocks_served"))
    served = replica.counters.get("fusion_blocks_served")
    acked = replica.fusion_feeder.acked

    outsider = _Outsider(cluster, "X9")
    outsider.send(replica.node_id, FusionFetch(parity_id="X9", shard=0, seqno=0, slot_width=96))
    # Claiming a real fused node's id does not help: src must match it.
    outsider.send(replica.node_id, FusionFetch(parity_id="F0", shard=0, seqno=0, slot_width=96))
    outsider.send(replica.node_id, ParityAck(parity_id="X9", shard=0, seqno=99))
    sharded.sim.run_for(0.5)
    assert replica.counters.get("fusion_fetches_refused") == 2
    assert replica.counters.get("fusion_acks_ignored") == 1
    assert replica.counters.get("fusion_blocks_served") == served
    assert not any(isinstance(message, FusionBlock) for message in outsider.received)
    assert replica.fusion_feeder.acked == acked < 99


def test_state_transfer_fetches_are_answered_to_the_group_only():
    cluster = kv_cluster()
    client = cluster.client("C0")
    for i in range(16):  # one stable checkpoint, so every fetch has an answer
        assert client.invoke(encode_set(i % 4, b"secret%d" % i)) == b"OK"
    cluster.settle()
    donor = cluster.replica("R1")
    assert donor.stable_seqno == 16
    outsider = _Outsider(cluster, "X9")
    # Claiming to be a replica in the message does not help: src must be one.
    outsider.send("R1", FetchRoot(requester="R2", min_seqno=1))
    outsider.send("R1", FetchMeta(requester="R2", level=0, index=0, min_seqno=16))
    outsider.send("R1", FetchObject(requester="R2", index=1, min_seqno=16))
    cluster.settle()
    assert donor.counters.get("fetches_refused") == 3
    assert donor.counters.get("meta_served") == 0
    assert donor.counters.get("objects_served") == 0
    assert outsider.received == []
    # The same three from a member of the group are served.
    peer = cluster.replica("R2")
    peer.send("R1", FetchMeta(requester="R2", level=0, index=0, min_seqno=16))
    peer.send("R1", FetchObject(requester="R2", index=1, min_seqno=16))
    cluster.settle()
    assert donor.counters.get("meta_served") == 1
    assert donor.counters.get("objects_served") == 1
    assert donor.counters.get("fetches_refused") == 3
