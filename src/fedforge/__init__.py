"""Federated learning over plain TCP sockets, with a logistic-regression case
study and a phase-equivalence harness.

The package splits into small layers: ``transport`` frames messages over
sockets, ``sim`` swaps in a deterministic in-process network, ``engine`` runs
the federation protocol against user callbacks, ``logreg`` supplies the model
and its callbacks, ``launcher``/``cli`` spawn multi-process runs, and
``paradigm`` checks that sequential, federated-sequential, simulated, and
multi-process runs of the same model agree.
"""

from .engine import CallbackPair, fl_centralized, fl_decentralized
from .errors import FedforgeError
from .launcher import LaunchSpec
from .logreg import ModelVector, TrainConfig, evaluate, train_logreg
from .transport import Message, NodeConfig, start_node

__all__ = [
    "CallbackPair",
    "FedforgeError",
    "LaunchSpec",
    "Message",
    "ModelVector",
    "NodeConfig",
    "TrainConfig",
    "evaluate",
    "fl_centralized",
    "fl_decentralized",
    "start_node",
    "train_logreg",
]

__version__ = "0.1.0"
