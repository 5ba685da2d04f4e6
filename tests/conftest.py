"""Hooks on the names that ``trainer.fit`` calls: the no-subspace baseline,
and a recorder of each block cycle's parameters."""

import contextlib
from typing import NamedTuple

import numpy as np
import pytest

from subadapt import trainer


class Cycle(NamedTuple):
    """The parameters after one block cycle."""

    theta: np.ndarray
    w: np.ndarray
    phi: np.ndarray
    varphi: np.ndarray
    pi: np.ndarray


@contextlib.contextmanager
def _no_subspace():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "update_theta",
                      lambda phi_mat, r, prev_theta=None: np.eye(r, phi_mat.shape[0]))
        patch.setattr(trainer, "update_w",
                      lambda theta, phi_vec, varphi_vec: np.zeros(theta.shape[0]))
        yield


@contextlib.contextmanager
def _recorded_cycles():
    cycles = []
    run = trainer.block_cycle

    def recording(*args):
        out = run(*args)
        cycles.append(Cycle(*out[0]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "block_cycle", recording)
        yield cycles


@pytest.fixture(scope="session")
def no_subspace():
    """A context manager under which ``fit`` keeps the projection at the
    identity prefix I[:r] and the shared classifier at zero: the
    no-subspace baseline."""
    return _no_subspace


@pytest.fixture(scope="session")
def recorded_cycles():
    """A context manager whose list collects the ``Cycle`` of every block
    cycle that ``fit`` runs inside it."""
    return _recorded_cycles
