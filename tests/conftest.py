import weakref

import pytest

from crackfind import fem, geometry, ndmap
from crackfind.geometry import PixelGrid, PixelSet, build_rect_mesh, embed_crack


@pytest.fixture(scope="session")
def chain_setup():
    """Unit square with one insulating and one conducting crack, each
    compactly inside its own pixel strip."""
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, cracks = embed_crack(
        mesh, [(0.25, 0.3125), (0.5, 0.3125)], geometry.INSULATING
    )
    mesh, cracks = embed_crack(
        mesh, [(0.5, 0.6875), (0.75, 0.6875)], geometry.CONDUCTING, cracks=cracks
    )
    grid = PixelGrid(mesh, 8, 8)
    V = PixelSet.from_rect(grid, 1, 2, 4, 2)
    W = PixelSet.from_rect(grid, 3, 5, 6, 5)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 24)
    return mesh, cracks, grid, V, W, gamma0, basis


class Factorizations:
    """Counts the ``fem.Factorization`` objects a run makes.

    ``made`` is how many were made and ``most`` the most alive at once,
    both since the last ``reset``; ``labels`` lists the ``config_label`` of
    each one's dof map, in the order they were made. A factorization's end
    is seen through ``weakref.finalize``, so a caller that holds one while
    it makes the next shows up in ``most``.
    """

    def __init__(self, monkeypatch):
        self.made = self.most = self.alive = 0
        self.labels = []
        real = fem.Factorization

        def counting(*args):
            fact = real(*args)
            self.made += 1
            self.labels.append(fact.dm.config_label())
            self.alive += 1
            self.most = max(self.most, self.alive)
            weakref.finalize(fact, self._end)
            return fact

        monkeypatch.setattr(fem, "Factorization", counting)

    def _end(self):
        self.alive -= 1

    def reset(self):
        self.made, self.most = 0, self.alive
        self.labels = []


@pytest.fixture(scope="session")
def count_factorizations():
    """``count_factorizations(monkeypatch)`` installs a ``Factorizations`` counter."""
    return Factorizations


@pytest.fixture
def factorizations(monkeypatch):
    """A ``Factorizations`` counter installed for one test."""
    return Factorizations(monkeypatch)
