#!/usr/bin/env python3
"""The second example from the paper's abstract: an object-oriented database
where every replica runs the *same, non-deterministic* implementation.

ThorDB assigns memory-address-like object handles (random heap base +
jittered strides), so four replicas running identical code still hold
completely different concrete states.  The BASE conformance wrapper maps the
handles to deterministic abstract oids, so clients see one consistent
database — and corruption in any single replica's heap is healed from the
abstract state of the others.

Run:  python examples/oodb_graph.py
"""

from repro.bft.config import BFTConfig
from repro.oodb import OODBDeployment


def main() -> None:
    deployment = OODBDeployment(
        config=BFTConfig(checkpoint_interval=16, log_window=64), num_objects=128
    )
    db = deployment.client("C0")

    # Build a small social graph.
    alice = db.new("Person")
    db.set(alice, "name", "alice")
    bob = db.new("Person")
    db.set(bob, "name", "bob")
    db.set(alice, "knows", bob)
    db.set(bob, "knows", alice)
    db.set(db.root, "directory", alice)

    print("alice:", db.get(alice))
    print("bob  :", db.get(bob))
    print("root :", db.get(db.root))

    # Same code, four different heaps: show the concrete divergence.
    handles = {
        rid: hex(deployment.wrapper(rid).handles[1] or 0)
        for rid in deployment.cluster.hosts
    }
    print("concrete handle of 'alice' at each replica:", handles)
    assert len(set(handles.values())) == 4, "handles should all differ"

    deployment.sim.run_for(1.0)
    roots = {
        rid: deployment.cluster.service(rid).current_node(0, 0)[1].hex()[:12]
        for rid in deployment.cluster.hosts
    }
    print("abstract state roots:", roots)
    assert len(set(roots.values())) == 1

    # Corrupt one replica's heap behind its back, then rejuvenate it.
    victim_handle = deployment.wrapper("R1").handles[1]
    deployment.cluster.disks["R1"]["thor:heap"][victim_handle]["attrs"]["name"] = "EVIL"
    print("\ncorrupted 'alice' in R1's heap; recovering R1 ...")
    host = deployment.cluster.hosts["R1"]
    host.recover_now()
    deployment.sim.run_for(5.0)
    print(
        "recovery:",
        "completed" if host.replica.counters.get("recoveries_completed") else "failed",
        f"(objects fetched: {host.replica.counters.get('objects_fetched')})",
    )
    roots = {
        rid: deployment.cluster.service(rid).current_node(0, 0)[1].hex()[:12]
        for rid in deployment.cluster.hosts
    }
    assert len(set(roots.values())) == 1
    print("alice, everywhere, again:", db.get(alice))


if __name__ == "__main__":
    main()
