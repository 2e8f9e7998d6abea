#!/usr/bin/env python3
"""Watching the protocol work: the structured tracer.

Runs a short scenario (traffic, a primary crash, a proactive recovery) on a
traced cluster and prints the resulting protocol timeline — stable
checkpoints, the view change, the state transfer, the recovery.

Run:  python examples/trace_timeline.py
"""

from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.testing import KVStateMachine, encode_set


def main() -> None:
    cluster = Cluster(
        lambda replica_id: (lambda disk: KVStateMachine(num_slots=32, disk=disk)),
        config=BFTConfig(checkpoint_interval=8, log_window=16),
        trace=True,
    )
    client = cluster.client("C0")

    for i in range(10):
        client.invoke(encode_set(i % 4, bytes([i])))

    cluster.crash("R0")  # primary down: watch the view change
    client.invoke(encode_set(0, b"post-failover"), timeout=30)
    cluster.restart("R0")
    cluster.settle(2.0)

    cluster.recover("R2")  # proactive recovery: watch the reboot
    cluster.settle(3.0)

    print("protocol timeline:")
    print(cluster.tracer.dump())
    print()
    print(
        f"summary: {cluster.tracer.count('checkpoint_stable')} stable checkpoints, "
        f"{cluster.tracer.count('view_adopted')} view adoptions, "
        f"{cluster.tracer.count('state_transfer_completed')} state transfers, "
        f"{cluster.tracer.count('recovery_completed')} recoveries"
    )


if __name__ == "__main__":
    main()
