"""Golden coefficients: the bits training and aggregation must give on every
supported interpreter.

Standard library only, so any interpreter can run it without pytest:

    PYTHONPATH=src python3.13 -m unittest tests.test_golden

The values are the bits CPython 3.11 has always given.  A float ``sum()``
in training would break them on 3.12 and later, whose compensated
summation rounds differently.
"""

import unittest

from fedforge.engine import CallbackPair, fl_decentralized
from fedforge.logreg import (
    TEST_FRACTION,
    ModelVector,
    bundled_sna_path,
    cb_cent_client,
    cb_decent_server,
    deserialize_model,
    load_sna_csv,
    partition_horizontal,
    serialize_model,
    split,
    train_logreg,
)
from fedforge.sim import run_nodes, sim_transport

ZERO = serialize_model(ModelVector(0.0, 0.0))

FULL_SEED42 = ("-0x1.1a994b26b484cp-1", "0x1.4fda232a29b2ap+0")
PARTITION_SEED42 = ("-0x1.0673931871676p-1", "0x1.3833363e4cb99p+0")

# A 2-node clique over the bundled dataset: `fedforge launch --algo
# decentralized --nodes 2 --iters 3 --seed 1`.  Split seed 1 gives the two
# nodes different halves (seed 42 gives equal ones), so the nodes end apart.
CLIQUE_SPLIT_SEED = 1
CLIQUE_ROUNDS = 3
CLIQUE_PAYLOADS = (
    bytes.fromhex("bfe57f5a2f61a3d93ff831be9460330a"),
    bytes.fromhex("bfe4d9bab0ccdc0a3ff91a1682d4f78e"),
)


def bundled_split(seed):
    return split(load_sna_csv(bundled_sna_path()), TEST_FRACTION, seed)


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

    def test_clique_payloads(self):
        data = bundled_split(CLIQUE_SPLIT_SEED)
        parts = partition_horizontal(data.X_train, data.y_train, 2)
        self.assertNotEqual(parts[0], parts[1])
        callbacks = CallbackPair(server_fn=cb_decent_server, client_fn=cb_cent_client)
        finals = run_nodes(sim_transport(2), lambda handle: fl_decentralized(
            handle, callbacks, ZERO, parts[handle.config.node_id], iterations=CLIQUE_ROUNDS))
        self.assertEqual(tuple(finals), CLIQUE_PAYLOADS)


if __name__ == "__main__":
    unittest.main()
