"""Golden coefficients: the bits training and aggregation must give on every
supported interpreter.

Standard library only, so any interpreter can run it without pytest:

    PYTHONPATH=src python3.13 -m unittest tests.test_golden

The values are the bits CPython 3.11 has always given.  A float ``sum()``
in training would break them on 3.12 and later, whose compensated
summation rounds differently.  The wire layout of a DATA frame is pinned
here too, as the live transport sends and reads it.
"""

import socket
import unittest

from fedforge.cli import node_program
from fedforge.launcher import LaunchSpec
from fedforge.logreg import (
    TEST_FRACTION,
    ModelVector,
    bundled_sna_path,
    cb_cent_client,
    deserialize_model,
    gen_synthetic,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
    train_logreg,
)
from fedforge.sim import run_nodes, sim_transport
from fedforge.transport import Message, NodeConfig, TcpTransport

ZERO = serialize_model(ModelVector(0.0, 0.0))

FULL_SEED42 = ("-0x1.1a994b26b484cp-1", "0x1.4fda232a29b2ap+0")
PARTITION_SEED42 = ("-0x1.0673931871676p-1", "0x1.3833363e4cb99p+0")
# All 320 rows distinct, so training takes the row loop; the bundled
# partitions above take the grouped loop.
SYNTHETIC_SEED7 = ("-0x1.295c52b4727c1p-2", "0x1.6780f98ab3d50p+0")

# A 2-node clique over the bundled dataset: `fedforge launch --algo
# decentralized --nodes 2 --iters 3 --seed 1`.  Split seed 1 gives the two
# nodes different halves (seed 42 gives equal ones), so the nodes end apart.
CLIQUE_SPLIT_SEED = 1
CLIQUE_ROUNDS = 3
CLIQUE_PAYLOADS = (
    bytes.fromhex("bfe57f5a2f61a3d93ff831be9460330a"),
    bytes.fromhex("bfe4d9bab0ccdc0a3ff91a1682d4f78e"),
)
# A 3-node star, server 1, one round on split seed 1: `fedforge launch --algo
# centralized --nodes 3 --srv-id 1 --seed 1`.  The clients' slices differ, so
# a client that trained the other's slice would end with the other's bytes.
STAR_PAYLOADS = (
    bytes.fromhex("bfe1a6469a6417cc3ff8fcfd7f215a94"),
    bytes.fromhex("bfe315488ad333883ff65d653555ec5b"),
    bytes.fromhex("bfe4844a7b424f433ff3bdcceb8a7e22"),
)


def bundled_split(seed):
    return split(load_sna_csv(bundled_sna_path()), TEST_FRACTION, seed)


def simulate(spec, schedule=None):
    """Every node's final payload of ``spec``: ``node_program``, the program
    ``fedforge node`` runs, for every node over the sim."""
    runs = [node_program(spec, i)[1] for i in range(spec.n_nodes)]
    handles = sim_transport(spec.n_nodes, schedule, spec.srv_id)
    return run_nodes(handles, lambda handle: runs[handle.config.node_id](handle))


def hex_pair(m: ModelVector) -> tuple[str, str]:
    return m.b0.hex(), m.b1.hex()


class GoldenBits(unittest.TestCase):
    def test_full_training_seed42(self):
        data = bundled_split(42)
        self.assertEqual(hex_pair(train_logreg(data.X_train, data.y_train)), FULL_SEED42)

    def test_partition_update_seed42(self):
        data = bundled_split(42)
        for part in partition_horizontal(data.X_train, data.y_train, 2):
            update = deserialize_model(cb_cent_client(None, part, ZERO))
            self.assertEqual(hex_pair(update), PARTITION_SEED42)

    def test_distinct_rows_training(self):
        ds = gen_synthetic(7, 320)
        self.assertEqual(hex_pair(train_logreg(ds.ages(), ds.labels())), SYNTHETIC_SEED7)

    def test_clique_payloads(self):
        spec = LaunchSpec(2, "decentralized", bundled_sna_path(), iterations=CLIQUE_ROUNDS,
                          split_seed=CLIQUE_SPLIT_SEED)
        self.assertEqual(tuple(simulate(spec)), CLIQUE_PAYLOADS)

    def test_star_payloads(self):
        spec = LaunchSpec(3, "centralized", bundled_sna_path(), srv_id=1,
                          split_seed=CLIQUE_SPLIT_SEED)
        self.assertEqual(tuple(simulate(spec)), STAR_PAYLOADS)


# Node 1's phase-2 reply (1.0, -2.0) to node 0: length 20, kind DATA,
# phase 2, src 1, then the 16-byte model.
REPLY = Message(2, 1, serialize_model(ModelVector(1.0, -2.0)))
REPLY_WIRE = bytes.fromhex("00000014" "01" "02" "0001" "3ff0000000000000" "c000000000000000")


class WireLayout(unittest.TestCase):
    def test_data_frame_sent_and_read(self):
        end1, end0 = socket.socketpair()
        end1.setblocking(False)
        end0.settimeout(5)
        node1 = TcpTransport(NodeConfig(n_nodes=2, node_id=1), {0: end1})
        node0 = TcpTransport(NodeConfig(n_nodes=2, node_id=0), {1: end0})
        with node1, node0:
            node1.send(0, REPLY)
            wire = b""
            while len(wire) < len(REPLY_WIRE) and (chunk := end0.recv(64)):
                wire += chunk
            self.assertEqual(wire, REPLY_WIRE)
            end0.setblocking(False)
            end1.sendall(REPLY_WIRE)
            self.assertEqual(node0.recv(), REPLY)


if __name__ == "__main__":
    unittest.main()
