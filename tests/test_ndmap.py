import dataclasses
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from crackfind import fem, geometry, harness, ndmap, reconstruct
from crackfind.geometry import (
    CrackSet,
    build_disk_mesh,
    build_rect_mesh,
    embed_crack,
    mark_gamma,
)
import oracles
from oracles import FactorizedConfigurations, energy, projection_identity_check


def test_build_basis_orthonormal_mean_free():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    basis = ndmap.build_basis(mesh, 8)
    assert basis.vectors.shape == (32, 8)
    assert np.max(np.abs(basis.gram - np.eye(8))) < 1e-10
    Mg = fem.gamma_mass(mesh)
    w = Mg.sum(axis=1)
    assert np.max(np.abs(w @ basis.vectors)) < 1e-12


def test_build_basis_size_limits():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    ndmap.build_basis(mesh, 31)
    with pytest.raises(ValueError):
        ndmap.build_basis(mesh, 32)
    with pytest.raises(ValueError):
        ndmap.build_basis(mesh, 0)


def test_build_basis_on_partial_arc():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    mesh = mark_gamma(mesh, {"side": "left"})
    basis = ndmap.build_basis(mesh, 6)
    assert basis.vectors.shape[0] == 9
    assert np.max(np.abs(basis.gram - np.eye(6))) < 1e-10


def test_disk_low_modes_match_separation_of_variables():
    # On the unit disk with unit conductivity the current cos(k theta) is
    # mapped to the voltage cos(k theta)/k, so unit-norm trigonometric
    # currents give diagonal entries 1/k.
    mesh = build_disk_mesh(1.0, 0.05)
    order = mesh.gamma_vertices()
    ang = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
    raw = np.stack([np.cos(ang), np.sin(ang), np.cos(2 * ang)], axis=1)
    basis = ndmap.CurrentBasis.from_vectors(mesh, raw)
    N = ndmap.nd_matrix(fem.factorize(mesh, fem.Conductivity(mesh, 1.0)), basis)
    expect = np.array([1.0, 1.0, 0.5])
    rel = np.abs(np.diag(N.entries) - expect) / expect
    assert np.max(rel) < 0.02
    off = N.entries - np.diag(np.diag(N.entries))
    assert np.max(np.abs(off)) < 0.02


def test_nd_matrix_diagonal_equals_dirichlet_energy(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    fact = oracles.factorize(mesh, gamma0, cracks)
    N = ndmap.nd_matrix(fact, basis)
    for i in (0, 5, 11):
        u = fem.solve_neumann(fact, basis.vectors[:, i : i + 1])
        e = energy(fact.K, u, u)
        assert N.entries[i, i] == pytest.approx(e, rel=1e-10)


@pytest.mark.parametrize("which", ["none", "cracks", "excluded", "frozen"])
def test_nd_matrix_matches_column_loop(chain_setup, which):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    config = {"none": {}, "cracks": {"cracks": cracks}, "excluded": {"excluded": V},
              "frozen": {"frozen": W}}[which]
    fact = oracles.factorize(mesh, gamma0, **config)
    N = ndmap.nd_matrix(fact, basis).entries
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    ref = np.empty((basis.M, basis.M))
    for j in range(basis.M):
        trace = fem.trace_on_gamma(fem.solve_neumann(fact, basis.vectors[:, j : j + 1]))
        ref[j] = trace[:, 0] @ weighted
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(N - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=15, deadline=None)
@given(
    which=st.sampled_from(["none", "cracks", "insulating", "conducting", "excluded", "frozen"]),
    box=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(0, 3)),
)
def test_nd_matrix_matches_default_ordering_lu(chain_setup, which, box):
    # the symmetric-mode factorization against SuperLU's default ordering
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    x0, y0, dx, dy = box
    region = geometry.PixelSet.from_rect(grid, x0, y0, min(x0 + dx, 6), min(y0 + dy, 6))
    config = {
        "none": {},
        "cracks": {"cracks": cracks},
        "insulating": {"cracks": cracks.of_kind(geometry.INSULATING)},
        "conducting": {"cracks": cracks.of_kind(geometry.CONDUCTING)},
        "excluded": {"excluded": region},
        "frozen": {"frozen": region},
    }[which]
    fact = oracles.factorize(mesh, gamma0, **config)
    N = ndmap.nd_matrix(fact, basis).entries
    dm, keep = fact.dm, fact.keep
    lu = scipy.sparse.linalg.splu(fact.K[keep][:, keep].tocsc())
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    b = np.zeros((dm.n_dofs, basis.M))
    np.add.at(b, dm.gamma_dofs, weighted)
    x = np.zeros_like(b)
    x[keep] = lu.solve(b[keep])
    ref = x[dm.gamma_dofs].T @ weighted
    ref = 0.5 * (ref + ref.T)
    assert np.max(np.abs(N - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_nd_matrix_basis_covariance():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 10)
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    rotated = ndmap.CurrentBasis(mesh, basis.vectors @ Q)
    fact = fem.factorize(mesh, gamma0)
    N1 = ndmap.nd_matrix(fact, basis)
    N2 = ndmap.nd_matrix(fact, rotated)
    assert np.max(np.abs(N2.entries - Q.T @ N1.entries @ Q)) < 1e-12


def test_psd_test_examples():
    ok, eig = ndmap.psd_test(np.eye(3), 0.0)
    assert ok and eig == pytest.approx(1.0)
    ok, eig = ndmap.psd_test(np.diag([1.0, -1e-3]), 1e-6)
    assert not ok
    assert eig == pytest.approx(-1e-3)
    with pytest.raises(ValueError):
        ndmap.psd_test(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(1e-3, 1e3), st.integers(2, 8))
def test_psd_test_detects_planted_eigenvalue(seed, t, m):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = np.sort(rng.uniform(0.0, 10.0, size=m))
    A = Q @ np.diag(vals) @ Q.T
    ok, eig = ndmap.psd_test(A, 1e-9 * max(1.0, vals[-1]))
    assert ok
    vals[0] = -t
    B = Q @ np.diag(vals) @ Q.T
    ok, eig = ndmap.psd_test(B, 0.5 * t)
    assert not ok
    assert eig == pytest.approx(-t, rel=1e-8)


def test_default_tau_uses_spectral_norm():
    A = ndmap.NdMatrix(np.diag([3.0, -5.0, 1.0]), "diag", ())
    assert ndmap.default_tau(A) == pytest.approx(5e-8)


def test_stacked_tests_are_the_single_tests_bit_for_bit():
    # one stacked eigvalsh per stack: each record and default threshold is
    # the one an eigvalsh of that matrix alone gives, and an asymmetric
    # member is refused wherever it sits
    rng = np.random.default_rng(11)
    B = rng.standard_normal((37, 9, 9))
    A = B @ np.swapaxes(B, 1, 2) + 0.1 * np.eye(9)
    A[::3] -= 2.0 * np.eye(9)
    A[5] *= 1e-6
    A[7] *= -1.0
    spectra = [np.linalg.eigvalsh(0.5 * (a + a.T)) for a in A]
    taus = ndmap.default_taus(A)
    expected = [ndmap.PSD_TAU_FACTOR * float(np.max(np.abs(w))) for w in spectra]
    assert [float(t) for t in taus] == expected
    assert ndmap.default_tau(ndmap.NdMatrix(A[5], "one", ())) == expected[5]
    for tau in (0.5, taus):
        got = ndmap.certificates("stack", A, tau)
        for c, w, t in zip(got, spectra, np.broadcast_to(tau, len(A))):
            assert c == {
                "test": "stack", "passed": bool(w[0] >= -t), "min_eig": float(w[0]),
                "tau": float(t), "close_call": bool(abs(w[0]) < ndmap.MARGIN_SCALE * t),
            }
        assert {c["passed"] for c in got} == {True, False}
        for a, c in zip(A, got):
            assert ndmap.certificate("stack", a, None, c["tau"]) == c
    bad = A.copy()
    bad[20, 0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        ndmap.psd_tests(bad, 0.0)
    with pytest.raises(ValueError, match="square"):
        ndmap.psd_tests(A[:, :, :4], 0.0)


def test_monotonicity_chain(chain_setup):
    # excluded V >= insulating crack >= empty >= conducting crack >= frozen W
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    ins = cracks.of_kind(geometry.INSULATING)
    con = cracks.of_kind(geometry.CONDUCTING)
    mats = [
        ndmap.nd_matrix(oracles.factorize(mesh, gamma0, **config), basis)
        for config in ({"excluded": V}, {"cracks": ins}, {}, {"cracks": con}, {"frozen": W})
    ]
    for hi, lo in zip(mats, mats[1:]):
        diff = hi.entries - lo.entries
        ok, eig = ndmap.psd_test(diff, ndmap.default_tau(hi))
        assert ok, (hi.config_label, lo.config_label, eig)


def test_bracketing_of_mixed_cracks(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    C = geometry.PixelSet(grid, V.members | W.members)
    data = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, cracks), basis)
    upper = ndmap.nd_matrix(fem.factorize(mesh, gamma0, excluded=C), basis)
    lower = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, frozen=C), basis)
    ok, _ = ndmap.psd_test(upper.entries - data.entries, ndmap.default_tau(upper))
    assert ok
    ok, _ = ndmap.psd_test(data.entries - lower.entries, ndmap.default_tau(data))
    assert ok


def test_bracketing_fails_when_region_misses_crack(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    data = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, cracks), basis)
    upper = ndmap.nd_matrix(fem.factorize(mesh, gamma0, excluded=W), basis)
    tau = ndmap.default_tau(upper)
    ok, eig = ndmap.psd_test(upper.entries - data.entries, tau)
    assert not ok
    assert eig < -10 * tau


def test_projection_identity_full_vs_conducting(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for idx in (0, 3, 7):
        lhs, rhs = projection_identity_check(mesh, gamma0, cracks, basis, idx, "P")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_insulating_vs_full(chain_setup):
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    for idx in (0, 3, 7):
        lhs, rhs = projection_identity_check(mesh, gamma0, cracks, basis, idx, "Q")
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-14)


def test_projection_identity_no_cracks_is_zero():
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 8)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    lhs, rhs = projection_identity_check(
        mesh, gamma0, CrackSet([]), basis, 2, "P"
    )
    assert abs(lhs) < 1e-12
    assert abs(rhs) < 1e-12


def test_disk_axis_crack_matrix_invisible():
    mesh = build_disk_mesh(1.0, 0.1)
    mesh, cracks = embed_crack(mesh, [(-0.3, 0.0), (0.3, 0.0)], geometry.INSULATING)
    gamma0 = fem.Conductivity(mesh, 1.0)
    order = mesh.gamma_vertices()
    ang = np.arctan2(mesh.vertices[order, 1], mesh.vertices[order, 0])
    basis = ndmap.CurrentBasis.from_vectors(mesh, np.cos(ang)[:, None])
    N0 = ndmap.nd_matrix(fem.factorize(mesh, gamma0), basis)
    N1 = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, cracks), basis)
    assert abs(N1.entries[0, 0] - N0.entries[0, 0]) < 1e-10 * N0.entries[0, 0]


def test_symmetric_noise_scales_and_reproduces():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((12, 12))
    N = ndmap.NdMatrix(base @ base.T, "ins:1", {geometry.INSULATING})
    noisy = ndmap.symmetric_noise(N, 0.01, np.random.default_rng(5))
    assert noisy.kinds == {geometry.INSULATING}
    E = noisy.entries - N.entries
    assert np.max(np.abs(E - E.T)) < 1e-12
    ratio = np.linalg.norm(E, 2) / np.linalg.norm(N.entries, 2)
    assert ratio == pytest.approx(0.01, rel=1e-12)
    again = ndmap.symmetric_noise(N, 0.01, np.random.default_rng(5))
    assert np.array_equal(again.entries, noisy.entries)
    assert ndmap.symmetric_noise(N, 0.0, rng) is N


def test_config_dict_validation(chain_setup):
    # a configuration is the keyword arguments of fem.factorize, so an
    # unknown key is refused by the call itself
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    with pytest.raises(TypeError, match="bogus"):
        oracles.factorize(mesh, gamma0, **{"bogus": V})


def test_configurations_match_nd_matrix_and_solve_once(chain_setup):
    # the named table against a direct nd_matrix call per configuration
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    configs = {
        "none": {},
        "all": {"cracks": cracks},
        "insulating": {"cracks": cracks.of_kind(geometry.INSULATING)},
        "conducting": {"cracks": cracks.of_kind(geometry.CONDUCTING)},
        "excluded V": {"excluded": V},
        "frozen V": {"frozen": V},
        "excluded W": {"excluded": W},
        "frozen W": {"frozen": W},
    }
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    # keyword dicts of the reference factorization, under the same keys
    assert {n: sorted(c) for n, c in table.configs.items()} == {
        n: sorted(c) for n, c in configs.items()
    }
    alone = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W).nd("none")
    for name, config in configs.items():
        ref = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, **config), basis)
        got = table.nd(name)
        if name == "none":
            assert np.array_equal(got.entries, ref.entries)
            assert np.array_equal(alone.entries, ref.entries)
        else:
            # crack and region configurations are updates of the background
            bound = (1e-12 if "cracks" in config else 1e-10) * np.max(np.abs(ref.entries))
            assert np.max(np.abs(got.entries - ref.entries)) <= bound
        assert np.array_equal(got.entries, got.entries.T)
        assert (got.config_label, got.kinds) == (ref.config_label, ref.kinds)

    # asked twice, or any name after the first: one factorization, one
    # current solve, and the table keeps that factorization for the run
    with mock.patch.object(fem, "Factorization", wraps=fem.Factorization) as fact, \
            mock.patch.object(fem, "solve_neumann", wraps=fem.solve_neumann) as solve:
        table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
        first = table.nd("frozen W")
        assert table.nd("frozen W") is first
        assert (fact.call_count, solve.call_count) == (1, 1)
        # the first request filled every other name
        for name in configs:
            table.nd(name)
        for name in ndmap.CRACK_CONFIGS:
            assert table.crack_update(name).fact.dm.config_label() == "none"
        assert (fact.call_count, solve.call_count) == (1, 1)


def test_none_asked_first_keeps_the_background(chain_setup, factorizations, monkeypatch):
    # the anti-crime data reads only "none": the background's one
    # factorization and one current solve, which the table keeps, so a
    # later fill updates that factorization and leaves "none" as it was
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W)
    # a mock would keep the factorization alive in its call record
    solves = []
    real = fem.solve_neumann
    monkeypatch.setattr(fem, "solve_neumann", lambda *a: solves.append(1) or real(*a))
    N0 = table.nd("none")
    assert solves == [1]
    assert (factorizations.made, factorizations.alive) == (1, 1)
    assert table.nd("none") is N0 is table.background.N0
    table.nd("excluded V")
    assert (factorizations.made, factorizations.alive, solves) == (1, 1, [1])
    assert table.nd("none") is N0


# ------------------------------------------------------------------ #
# the one low-rank update behind chains, regions and crack signatures
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("seed", range(6))
def test_woodbury_matches_the_dense_inverse(seed):
    # from the pinned potentials and Green's entries on S and C alone: the
    # ND matrix, the potentials on C and the Green's block on C of
    # K + P_S E P_S^T against its dense inverse. K is SPD, S and C are
    # disjoint, and E is indefinite but keeps K + P_S E P_S^T SPD
    rng = np.random.default_rng(seed)
    n, m, c = 30, int(rng.integers(1, 9)), int(rng.integers(1, 9))
    A = rng.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    B = rng.standard_normal((n, 5))
    S, C = np.split(rng.permutation(n)[:m + c], [m])
    F = rng.standard_normal((m, m))
    E = F @ F.T - 2.0 * np.eye(m)
    H = np.linalg.inv(K)
    K[np.ix_(S, S)] += E
    H1 = np.linalg.inv(K)
    Z = H @ B
    dN, dZ, dG = ndmap._woodbury(Z[S], H[np.ix_(S, S)], E, H[np.ix_(C, S)])
    for got, want in (
        (B.T @ Z - dN, B.T @ H1 @ B),
        (Z[C] - dZ, (H1 @ B)[C]),
        (H[np.ix_(C, C)] - dG, H1[np.ix_(C, C)]),
    ):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    alone = ndmap._woodbury(Z[S], H[np.ix_(S, S)], E)
    assert np.max(np.abs(alone - dN)) <= 1e-13 * np.max(np.abs(dN))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    groups=st.integers(0, 5),
    grounded=st.floats(0.0, 0.5),
    k=st.sampled_from([None, 1, 3]),
    offset=st.sampled_from([0.0, 1.0, 30.0]),
    loads=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_tie_short_circuit_matches_the_projection(m, groups, grounded, k, offset, loads, seed):
    # differential oracle: the short circuit (Q^T Z)^T (Q^T G Q)^-1 Q^T R
    # against the projection form on random SPD Green's blocks, with the
    # common offset c 11^T + S a far pin gives them (and the matching offset
    # of the potentials), several groups, singleton groups, rows tied to the
    # pin (no column of T), stacks that T ties alike, and load columns R
    rng = np.random.default_rng(seed)
    shape = () if k is None else (k,)
    A = rng.standard_normal(shape + (m, m))
    S = A @ np.swapaxes(A, -1, -2) / m + 0.1 * np.eye(m)
    G = offset * np.ones((m, m)) + S
    Z = rng.standard_normal(shape + (m, 5)) + offset * rng.standard_normal(shape + (1, 5))
    R = None if not loads else rng.standard_normal(shape + (m, loads))
    label = rng.integers(0, groups, m) if groups else np.full(m, -1)
    label[rng.random(m) < grounded] = -1
    ties = np.unique(label[label >= 0])
    T = (label[:, None] == ties).astype(float)
    got = ndmap._tied_correction(G, Z, T, R)
    want = oracles.tied_correction_projection(G, Z, T, R)
    assert got.shape == want.shape
    # relative to the energy Z^T G^-1 R that the correction takes a part of;
    # a tie that constrains nothing (singletons alone) corrects by zero
    energy = np.swapaxes(Z, -1, -2) @ np.linalg.solve(G, Z if R is None else R)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(energy))


def test_stacked_updates_are_the_single_updates_bit_for_bit():
    # a (k, m, .) stack, with and without the fold, gives the k single
    # updates' bits; an empty S changes nothing
    rng = np.random.default_rng(5)
    k, m, c, M = 9, 6, 4, 7
    A = rng.standard_normal((k, m + c, m + c))
    H = np.linalg.inv(A @ np.swapaxes(A, 1, 2) + (m + c) * np.eye(m + c))
    F = rng.standard_normal((k, m, m))
    E = F @ np.swapaxes(F, 1, 2) - 2.0 * np.eye(m)
    Z = rng.standard_normal((k, m, M))
    G, Y = H[:, :m, :m], H[:, m:, :m]
    stacked = ndmap._woodbury(Z, G, E, Y)
    alone = ndmap._woodbury(Z, G, E)
    for i in range(k):
        for got, want in zip(stacked, ndmap._woodbury(Z[i], G[i], E[i], Y[i])):
            assert np.array_equal(got[i], want)
        assert np.array_equal(alone[i], ndmap._woodbury(Z[i], G[i], E[i]))
    empty = ndmap._woodbury(Z[:, :0], G[:, :0, :0], E[:, :0, :0], Y[:, :, :0])
    assert [x.shape for x in empty] == [(k, M, M), (k, c, M), (k, c, c)]
    assert not any(np.any(x) for x in empty)


# ------------------------------------------------------------------ #
# single chains as low-rank updates of the crack-free background
# ------------------------------------------------------------------ #

CHAIN_MESHES = {
    ("rect", False): build_rect_mesh(1.0, 1.0, 1.0 / 8),
    ("rect", True): mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 8), {"box": [-0.1, 0.9, 0.5, 1.1]}),
    ("disk", False): build_disk_mesh(1.0, 0.2),
    ("disk", True): mark_gamma(build_disk_mesh(1.0, 0.2), {"angle": [0.5, 2.5]}),
}


def random_chain(mesh, rng, n_edges):
    """A simple chain of n_edges interior edges from a random walk."""
    bvs = set(np.flatnonzero(mesh.boundary_mask()).tolist())
    inner = [v for v in range(len(mesh.vertices)) if v not in bvs]
    edges = mesh.edges()
    for _ in range(100):
        chain = [int(rng.choice(inner))]
        while len(chain) <= n_edges:
            a = chain[-1]
            nbrs = np.concatenate([edges[edges[:, 0] == a, 1], edges[edges[:, 1] == a, 0]])
            nbrs = [w for w in nbrs.tolist() if w not in bvs and w not in chain]
            if not nbrs:
                break
            chain.append(int(rng.choice(nbrs)))
        if len(chain) == n_edges + 1:
            return tuple(chain)
    raise AssertionError("no chain of %d interior edges found" % n_edges)


def assert_matches_factorization(mesh, gamma0, basis, comps, stacks):
    # stacks are what chain_matrices yields: one row per component, in order
    got = np.concatenate(stacks)
    assert got.shape == (len(comps), basis.M, basis.M)
    for comp, N in zip(comps, got):
        ref = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, CrackSet([comp])), basis)
        assert np.max(np.abs(N - ref.entries)) <= 1e-10 * np.max(np.abs(ref.entries))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_chain_maps_match_nd_solver(shape, arc, box, seed):
    # differential oracle: the low-rank update of every chain against its own
    # factorization, both kinds, under a gamma0 box and on partial arcs
    mesh = CHAIN_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, min(8, len(mesh.gamma_vertices()) - 1))
    comps = [
        geometry.CrackComponent(random_chain(mesh, rng, int(rng.integers(1, 6))), kind)
        for kind in rng.choice(geometry.KINDS, size=5)
    ]
    got = list(ndmap.chain_matrices(ndmap.Background(mesh, gamma0, basis), comps))
    assert_matches_factorization(mesh, gamma0, basis, comps, got)


def test_chain_maps_yield_symmetric_stacks_in_candidate_order():
    # more than one batch of chains of both kinds, interleaved: full stacks of
    # CHAIN_BATCH rows, then the rest, each row the matrix of its candidate
    mesh = CHAIN_MESHES["rect", False]
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 4, 4)
    cands = reconstruct.axis_chain_candidates(mesh, geometry.PixelSet(grid, range(16)), (1, 2, 3))
    n = ndmap.CHAIN_BATCH + 13
    assert len(cands) >= n
    comps = [
        geometry.CrackComponent(chain, geometry.KINDS[i % 2]) for i, chain in enumerate(cands[:n])
    ]
    got = list(ndmap.chain_matrices(ndmap.Background(mesh, gamma0, basis), comps))
    assert [N.shape for N in got] == [(ndmap.CHAIN_BATCH, 6, 6), (13, 6, 6)]
    for N in got:
        assert N.dtype == float
        assert np.array_equal(N, np.swapaxes(N, 1, 2))
    assert_matches_factorization(mesh, gamma0, basis, comps, got)


def test_chain_maps_star_holding_the_pinned_dof():
    # the arc starts at (0.5, 1), so that vertex is pinned, and it is a
    # corner of the far fan of the slit below it
    mesh = CHAIN_MESHES["rect", True]
    pin = int(fem.build_dofmap(mesh).gamma_dofs[0])
    assert np.allclose(mesh.vertices[pin], [0.5, 1.0])
    chain = tuple(
        int(np.argmin(np.linalg.norm(mesh.vertices - [x, 0.875], axis=1)))
        for x in (0.375, 0.5, 0.625)
    )
    comp = geometry.CrackComponent(chain, geometry.INSULATING)
    far, _ = fem.split_fans(mesh, CrackSet([comp]))
    assert pin in mesh.triangles[far // 3]
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0.7, 1, 1], "value": 3.0}]})
    basis = ndmap.build_basis(mesh, 4)
    got = list(ndmap.chain_matrices(ndmap.Background(mesh, gamma0, basis), [comp]))
    assert_matches_factorization(mesh, gamma0, basis, [comp], got)


def test_chain_maps_refuse_invalid_chains():
    mesh = CHAIN_MESHES["rect", False]
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    bvs = np.flatnonzero(mesh.boundary_mask()).tolist()
    edges = mesh.edges()
    # an edge from a boundary vertex into the interior
    a, b = next(e for e in edges.tolist() if (e[0] in bvs) != (e[1] in bvs))
    for kind in geometry.KINDS:
        with pytest.raises(ValueError, match="boundary"):
            list(ndmap.chain_matrices(ndmap.Background(mesh, gamma0, basis),
                                      [geometry.CrackComponent((a, b), kind)]))


def record_green_solves(monkeypatch):
    """The dofs of every Green's solve of ``fem.Factorization``, one array per call.

    A Green's solve is recognised by its load: e_c - e_pin for each column c.
    """
    calls = []
    real = fem.Factorization.solve

    def solve(self, b, rows):
        k = b.shape[1]
        if np.array_equal(b, np.vstack([np.eye(k), -np.ones((1, k))])):
            assert rows[-1] == self.pin
            calls.append(np.asarray(rows[:-1]))
        return real(self, b, rows)

    monkeypatch.setattr(fem.Factorization, "solve", solve)
    return calls


def test_chain_green_columns_solved_once(monkeypatch):
    # the inner-chains benchmark scenario at seed 0: 520 insulating
    # candidates whose stars hold 193 distinct vertices; each star vertex is
    # one Green's column, solved once, and no solve is wider than the basis
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 16)
    mesh, _ = embed_crack(mesh, [(0.25, 0.75), (0.5, 0.75)], geometry.INSULATING)
    grid = geometry.PixelGrid(mesh, 8, 8)
    basis = ndmap.build_basis(mesh, 16)
    region = geometry.interior_pixel_set(grid)
    comps = [
        geometry.CrackComponent(c, geometry.INSULATING)
        for c in reconstruct.axis_chain_candidates(mesh, region, (2, 4))
    ]
    assert len(comps) == 520
    stars = set()
    for comp in comps:
        far, _ = fem.split_fans(mesh, CrackSet([comp]))
        stars.update(mesh.triangles[far // 3].ravel().tolist())
    stars.discard(int(mesh.gamma_vertices()[0]))
    calls = record_green_solves(monkeypatch)
    background = ndmap.Background(mesh, fem.Conductivity(mesh, 1.0), basis)
    got = list(ndmap.chain_matrices(background, comps))
    assert sum(len(N) for N in got) == 520
    columns = np.concatenate(calls).tolist()
    assert len(columns) == len(set(columns)) == len(stars) == 193
    assert set(columns) == stars
    assert max(len(c) for c in calls) <= basis.M


# ------------------------------------------------------------------ #
# a crack set's signature as one update of the crack-free background
# ------------------------------------------------------------------ #

# the h = 1/16 square as built and as the refinement of the h = 1/8 one,
# which is how anti-crime data meets it; in the refinement's triangle order
# the far fans of neighbouring chains can share triangles
SIGNATURE_MESHES = {
    "rect": build_rect_mesh(1.0, 1.0, 1.0 / 16),
    "refined": geometry.refine_mesh(build_rect_mesh(1.0, 1.0, 1.0 / 8), CrackSet())[0],
    "disk": build_disk_mesh(1.0, 0.1),
}
# partial arcs; the square's starts at (0.5, 1), the pinned vertex
TOP_ARC = {"box": [-0.1, 0.9, 0.5, 1.1]}
SIGNATURE_ARCS = {"rect": TOP_ARC, "refined": TOP_ARC, "disk": {"angle": [0.5, 2.5]}}
SIGNATURE_MESHES.update({
    (shape, True): mark_gamma(mesh, SIGNATURE_ARCS[shape]) for shape, mesh in SIGNATURE_MESHES.items()
})
SIGNATURE_CASES = (
    "mixed", "insulating", "conducting", "empty", "one edge", "shared fans", "pinned star"
)


def grid_chain(mesh, points):
    # the chain through the vertices at ``points``, given in units of 1/16
    return tuple(
        int(np.argmin(np.linalg.norm(mesh.vertices - np.divide(p, 16), axis=1))) for p in points
    )


def signature_cracks(mesh, rng, case, n):
    # the crack set of a case: its fixed chains, then random-walk chains of
    # 1 to 5 edges up to n components (kinds by the case), no two sharing a
    # vertex
    fixed = []
    if case == "one edge":
        fixed = [random_chain(mesh, rng, 1)]
    elif case == "shared fans":
        fixed = [grid_chain(mesh, [(x, y) for y in range(5, 9)]) for x in (2, 3)]
    elif case == "pinned star":
        fixed = [grid_chain(mesh, [(7, 15), (8, 15), (9, 15)])]
    kinds = {"insulating": [geometry.INSULATING], "conducting": [geometry.CONDUCTING]}
    comps = [geometry.CrackComponent(chain, geometry.INSULATING) for chain in fixed]
    used = {v for chain in fixed for v in chain}
    while case not in ("empty", "one edge") and len(comps) < n:
        chain = random_chain(mesh, rng, int(rng.integers(1, 6)))
        if used.isdisjoint(chain):
            used.update(chain)
            kind = rng.choice(kinds.get(case, geometry.KINDS))
            comps.append(geometry.CrackComponent(chain, kind))
    return CrackSet(comps)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(SIGNATURE_CASES),
    shape=st.sampled_from(["rect", "refined", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    n=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(case="empty", shape="disk", arc=True, box=False, n=1, seed=0)
@example(case="one edge", shape="rect", arc=False, box=True, n=1, seed=1)
@example(case="shared fans", shape="refined", arc=False, box=False, n=1, seed=2)
@example(case="shared fans", shape="refined", arc=True, box=True, n=3, seed=3)
@example(case="pinned star", shape="rect", arc=True, box=False, n=2, seed=4)
@example(case="pinned star", shape="refined", arc=True, box=True, n=1, seed=5)
# each shipped crack layout, whose scenario gives the mesh, the cracks, the
# conductivity and the basis
@example(case="inner_insulating_16.json", shape="rect", arc=False, box=False, n=1, seed=0)
@example(case="locpot_contrast_16.json", shape="rect", arc=False, box=False, n=1, seed=0)
@example(case="mixed_32.json", shape="rect", arc=False, box=False, n=1, seed=0)
@example(case="mixed_chain_32.json", shape="rect", arc=False, box=False, n=1, seed=0)
def test_crack_signature_matches_two_factorizations(case, shape, arc, box, n, seed):
    # differential oracle: the one joint update of a crack set against the
    # difference of its own and the background's factorizations, and the
    # plain data, N0 plus that update as generate_data forms it, against
    # the cracks' own factorization. The fixed chains need the square: two
    # chains one cell apart whose far fans share triangles in the
    # refinement, and a slit whose star holds the pin of the top arc
    if case.endswith(".json"):
        scenario = harness.load_scenario(
            os.path.join(os.path.dirname(__file__), "..", "configs", case))
        scenario = dataclasses.replace(scenario, anti_crime=False)
        built = harness.build_scenario(scenario)
        mesh, gamma0, basis, cracks = built.mesh, built.gamma0, built.basis, built.cracks
        background = built.table.background
    else:
        if case == "shared fans":
            shape = "refined"
        elif case == "pinned star":
            shape, arc = ("rect" if shape == "disk" else shape), True
        mesh = SIGNATURE_MESHES[(shape, True) if arc else shape]
        rng = np.random.default_rng(seed)
        cracks = signature_cracks(mesh, rng, case, n)
        pin = mesh.gamma_vertices()[0]
        slits = cracks.of_kind(geometry.INSULATING)
        far, owner = fem.split_fans(mesh, slits)
        if case == "shared fans":
            # a triangle in the far fans of both chains
            chain = np.repeat(np.arange(len(slits)), [len(c.chain) - 2 for c in slits.components])
            per_chain = [set((far[chain[owner] == k] // 3).tolist()) for k in (0, 1)]
            assert per_chain[0] & per_chain[1]
        if case == "pinned star":
            assert pin in mesh.triangles[far // 3]
        spec = 1.0
        if box:
            x0, y0 = rng.uniform(-1.0, 0.5, 2)
            spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6],
                               "value": rng.uniform(0.1, 10.0)}]}
        gamma0 = fem.Conductivity.from_spec(mesh, spec)
        basis = ndmap.build_basis(mesh, min(12, len(mesh.gamma_vertices()) - 1))
        background = ndmap.Background(mesh, gamma0, basis)
    dN = ndmap.crack_signature(background, cracks)
    plain = background.N0.entries + dN
    ref0, ref = oracles.crack_signature_factorized(mesh, gamma0, basis, cracks)
    scale = np.max(np.abs(ref.entries))
    assert dN.shape == (basis.M, basis.M) and np.array_equal(dN, dN.T)
    assert np.max(np.abs(dN - (ref.entries - ref0.entries))) <= 1e-12 * scale
    assert np.max(np.abs(plain - ref.entries)) <= 1e-12 * scale
    if case.endswith(".json"):
        # the run's plain data is that sum
        assert np.array_equal(harness.generate_data(scenario, built)[0].entries, plain)
    if case in ("empty", "one edge"):
        # nothing to slit or tie
        assert not dN.any()

@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["rect", "refined", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    n=st.integers(1, 40),
    width=st.integers(1, 12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_green_columns_give_the_basis_potentials(shape, arc, box, n, width, seed):
    # differential oracle of the reciprocity: the pinned potentials Z read
    # off the arc rows of the Green's columns, and the Green's block G
    # itself, against the basis currents' potentials and the Green's block
    # solved M columns at a time, on random vertex sets solved in chunks of
    # ``width`` columns
    mesh = SIGNATURE_MESHES[(shape, True) if arc else shape]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, min(12, len(mesh.gamma_vertices()) - 1))
    pin = mesh.gamma_vertices()[0]
    free = np.delete(np.arange(len(mesh.vertices)), pin)
    verts = np.sort(rng.choice(free, size=n, replace=False))
    star = [np.arange(n)[None]]
    background = ndmap.Background(mesh, gamma0, basis)
    fact = background.fact
    potentials = fem.solve_neumann(fact, basis.vectors).values
    Z_ref = potentials[fact.dm.vertex_dof[verts]] - potentials[fact.pin]
    _, (G_ref,) = ndmap._green_block(fact, fact.dm.vertex_dof[verts], basis.M, star)
    Z, (G,) = background.green(verts, star, width)
    assert Z.shape == Z_ref.shape == (n, basis.M)
    assert np.max(np.abs(Z - Z_ref)) <= 1e-12 * np.max(np.abs(Z_ref))
    if width == basis.M:
        assert np.array_equal(G, G_ref)
    assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))


def test_anti_crime_data_factorizes_only_crack_free_meshes(monkeypatch, count_factorizations):
    # mixed_32's anti-crime data: the fine background, whose Green's columns
    # on U, the 33 vertices of the slit's star and the 17 of the tie, are
    # each solved once, in two blocks of 25, and are its only solves, then
    # the run's background, whose one current solve gives the coarse "none"
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "mixed_32.json")
    s = harness.load_scenario(path)
    assert s.anti_crime
    built = harness.build_scenario(s)
    calls = record_green_solves(monkeypatch)
    factorizations = count_factorizations(monkeypatch)
    currents = []
    real = fem.solve_neumann

    def solve_neumann(fact, F):
        currents.append(fact.dm.config_label())
        return real(fact, F)

    monkeypatch.setattr(fem, "solve_neumann", solve_neumann)
    harness.generate_data(s, built)
    assert factorizations.labels == ["none", "none"]
    assert currents == ["none"]
    fine, cracks = geometry.refine_mesh(built.mesh, built.cracks)
    far, _ = fem.split_fans(fine, cracks.of_kind(geometry.INSULATING))
    star = set(fine.triangles[far // 3].ravel().tolist()) - {int(fine.gamma_vertices()[0])}
    tied = {v for comp in cracks.of_kind(geometry.CONDUCTING).components for v in comp.chain}
    columns = np.concatenate(calls).tolist()
    assert (len(star), len(tied)) == (33, 17)
    assert len(columns) == len(set(columns)) == 50
    assert [len(c) for c in calls] == [25, 25]
    assert set(columns) == star | tied


@pytest.mark.parametrize("case", ["empty", "one edge"])
def test_crack_signature_without_slit_or_tie_factorizes_nothing(
    monkeypatch, count_factorizations, case
):
    # nothing to slit or tie: no factorization and exact zeros, after the
    # crack set is validated
    mesh = SIGNATURE_MESHES["rect"]
    cracks = signature_cracks(mesh, np.random.default_rng(1), case, 1)
    assert len(cracks.components) == (case == "one edge")
    basis = ndmap.build_basis(mesh, 12)
    factorizations = count_factorizations(monkeypatch)
    background = ndmap.Background(mesh, fem.Conductivity(mesh, 1.0), basis)
    dN = ndmap.crack_signature(background, cracks)
    assert factorizations.made == 0
    assert dN.shape == (12, 12) and not dN.any()
    a, b = mesh.gamma_vertices()[:2]
    with pytest.raises(ValueError):
        ndmap.crack_signature(background,
                              CrackSet([geometry.CrackComponent((a, b), geometry.INSULATING)]))
    assert factorizations.made == 0


# ------------------------------------------------------------------ #
# excluded and frozen regions as low-rank updates (upper peeling)
# ------------------------------------------------------------------ #

REGION_MESHES = {
    ("rect", False): build_rect_mesh(1.0, 1.0, 1.0 / 16),
    ("rect", True): mark_gamma(build_rect_mesh(1.0, 1.0, 1.0 / 16), {"box": [-0.1, 0.9, 0.5, 1.1]}),
    ("disk", False): build_disk_mesh(1.0, 0.1),
    ("disk", True): mark_gamma(build_disk_mesh(1.0, 0.1), {"angle": [0.5, 2.5]}),
}


def assert_region_matches_factorization(mesh, gamma0, basis, region, got, mode):
    # got is RegionMaps.matrices() of ``region``: each built side against
    # its own factorization, the other side None
    for N, key, built in (
        (got[0], "excluded", mode != "conducting"),
        (got[1], "frozen", mode != "insulating"),
    ):
        if not built:
            assert N is None
            continue
        ref = ndmap.nd_matrix(oracles.factorize(mesh, gamma0, **{key: region}), basis)
        assert N.config_label == ref.config_label
        assert N.kinds == ref.kinds == frozenset()
        assert np.max(np.abs(N.entries - ref.entries)) <= 1e-10 * np.max(np.abs(ref.entries))


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    mode=st.sampled_from(ndmap.MODES),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_region_maps_match_nd_solver(shape, arc, box, mode, seed):
    # differential oracle along a random peel sequence: every tested region
    # (the start region, candidates, regions after folds) against its own
    # factorization, under a gamma0 box and on partial arcs; the Green's
    # blocks are solved in several chunks of M = 6 columns
    mesh = REGION_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    maps = ndmap.RegionMaps(mesh, gamma0, basis, geometry.interior_pixel_set(grid), mode)
    assert_region_matches_factorization(mesh, gamma0, basis, maps.region, maps.matrices(), mode)
    for _ in range(3):
        cands = geometry.peel_candidates(maps.region)
        pixel = cands[rng.integers(len(cands))]
        cand = maps.region.minus(pixel)
        assert_region_matches_factorization(mesh, gamma0, basis, cand, maps.matrices(pixel), mode)
        # fold a few removals between the checked ones
        for _ in range(int(rng.integers(1, 6))):
            cands = geometry.peel_candidates(maps.region)
            maps.peel(cands[rng.integers(len(cands))])
    assert_region_matches_factorization(mesh, gamma0, basis, maps.region, maps.matrices(), mode)


@pytest.mark.parametrize("mode", ndmap.MODES)
def test_region_maps_derive_each_closure(monkeypatch, mode):
    # on a peel that keeps the region in one piece, geometry.region_closure
    # runs for the start region alone; every other region's closure is
    # derived from its parent's, is the one region_closure finds (with the
    # ties where the frozen side reads them), and serves both its fold and
    # its frozen update; an accepted candidate installs the closure its test
    # derived
    mesh = REGION_MESHES["rect", False]
    grid = geometry.PixelGrid(mesh, 8, 8)
    calls = []
    real = geometry.region_closure

    def region_closure(region, ties=False):
        calls.append((tuple(sorted(region.members)), ties))
        return real(region, ties)

    def assert_closure(got, region):
        want = real(region, ties)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    monkeypatch.setattr(geometry, "region_closure", region_closure)
    maps = ndmap.RegionMaps(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 6),
                            geometry.interior_pixel_set(grid), mode)
    ties = mode != "insulating"
    assert calls == [(tuple(sorted(maps.region.members)), ties)]
    maps.matrices()
    for _ in range(3):
        for pixel in geometry.peel_candidates(maps.region)[:3]:
            maps.matrices(pixel)
            if ties:
                assert maps._last[0] == pixel
                assert_closure(maps._last[1][3], maps.region.minus(pixel))
        maps.peel(pixel)
        assert_closure(maps._block[3], maps.region)
        maps.matrices()
    assert len(calls) == 1


def record_dense_solves(monkeypatch):
    # the matrices that ``ndmap._dense_solve`` is called with, as (bytes,
    # shape, whether marked positive definite)
    seen = []
    real = ndmap._dense_solve

    def dense_solve(A, B, spd=False):
        seen.append((np.ascontiguousarray(A).tobytes(), A.shape, spd))
        return real(A, B, spd)

    monkeypatch.setattr(ndmap, "_dense_solve", dense_solve)
    return seen


def tie_sizes(closure, pin):
    # |C| - groups of a frozen region's tie: C without the pin, less one
    # row per group that a column of T ties (the pin's group has none)
    _, in_C, tie = closure
    C = np.flatnonzero(in_C)
    tied = tie[C[C != pin]]
    groups = set(tied.tolist()) - ({int(tie[pin])} if in_C[pin] else set())
    return len(tied) - len(groups)


@pytest.mark.parametrize("mode", ["both", "conducting"])
def test_each_frozen_matrix_is_one_tie_solve(monkeypatch, chain_setup, mode):
    # along a peel, each frozen matrix costs one positive definite solve of
    # size |C| - groups, the short circuit of its ties; so does each of a
    # table's frozen regions, and each crack update's ties (C of a crack set
    # less one row per conducting crack, none without one)
    mesh = REGION_MESHES["rect", False]
    grid = geometry.PixelGrid(mesh, 8, 8)
    maps = ndmap.RegionMaps(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 6),
                            geometry.interior_pixel_set(grid), mode)
    pin = mesh.gamma_vertices()[0]
    seen = record_dense_solves(monkeypatch)
    for _ in range(3):
        for pixel in geometry.peel_candidates(maps.region)[:3]:
            seen.clear()
            maps.matrices(pixel)
            size = tie_sizes(geometry.region_closure(maps.region.minus(pixel), ties=True), pin)
            assert [shape for _, shape, spd in seen if spd] == [(size, size)]
        maps.peel(pixel)
    mesh, cracks, grid, V, W, gamma0, basis = chain_setup
    pin = mesh.gamma_vertices()[0]
    seen.clear()
    ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), cracks, V, W).nd("frozen V")
    want = [tie_sizes(geometry.region_closure(region, ties=True), pin) for region in (V, W)]
    for name in ndmap.CRACK_CONFIGS:
        tied = [c.chain for c in cracks.components if c.kind == geometry.CONDUCTING
                and name != "insulating"]
        want.append(sum(len(chain) - 1 for chain in tied))
    assert [shape for _, shape, spd in seen if spd] == [(n, n) for n in want]


@pytest.mark.parametrize("mode", ["both", "conducting"])
def test_region_maps_solve_each_update_once(monkeypatch, mode):
    # where the frozen side folds every tested removal, its update and its
    # fold share one solve with I + E G_SS, and an accepted removal installs
    # that fold without another
    mesh = REGION_MESHES["rect", False]
    grid = geometry.PixelGrid(mesh, 8, 8)
    maps = ndmap.RegionMaps(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 6),
                            geometry.interior_pixel_set(grid), mode)
    seen = record_dense_solves(monkeypatch)
    for _ in range(3):
        for pixel in geometry.peel_candidates(maps.region)[:3]:
            maps.matrices(pixel)
        maps.peel(pixel)
    assert len(seen) > 9
    assert len(set(seen)) == len(seen)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_insulating_peel_installs_the_block_of_both(seed):
    # mode "insulating" folds a candidate only when peel accepts it, with
    # the update solved again for the fold: along a random peel sequence its
    # excluded matrices, of the candidates and of the installed blocks, are
    # those of mode "both", which folds every candidate it tests
    mesh = REGION_MESHES["rect", False]
    rng = np.random.default_rng(seed)
    grid = geometry.PixelGrid(mesh, 8, 8)
    args = mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 6)
    R0 = geometry.interior_pixel_set(grid)
    ins, both = (ndmap.RegionMaps(*args, R0, mode) for mode in ("insulating", "both"))

    def assert_same(a, b):
        assert a.config_label == b.config_label
        assert np.max(np.abs(a.entries - b.entries)) <= 1e-13 * np.max(np.abs(b.entries))

    assert_same(ins.matrices()[0], both.matrices()[0])
    for _ in range(6):
        cands = geometry.peel_candidates(ins.region)
        for pixel in rng.permutation(cands)[:3].tolist():
            assert_same(ins.matrices(pixel)[0], both.matrices(pixel)[0])
        ins.peel(pixel)
        both.peel(pixel)
        assert ins.region == both.region
        assert_same(ins.matrices()[0], both.matrices()[0])


def test_crack_update_is_blind_to_the_far_pins_offset():
    # the slits' update X = (I + E G)^-1 E Z_S has columns that sum to zero
    # over S, so dN does not see a common offset of the pinned potentials,
    # such as the far pin gives them. Inside a conductivity box of 10 the
    # potentials on the star spread far less than that offset; the first
    # row's shift cancels it before the product, where without the shift
    # one max|Z| of offset moves dN by 7.6e-11 of |dN| on this layout
    spec = {"h": 1 / 32, "grid": [8, 8], "M": 8, "methods": ["locpot"],
            "gamma0": {"boxes": [{"box": [0.2625, 0.276, 0.6625, 0.676], "value": 10.0}]},
            "cracks": [{"kind": "insulating", "polyline": [[0.65625, 0.625], [0.5, 0.625]]},
                       {"kind": "conducting",
                        "polyline": [[0.46875, 0.8125], [0.46875, 0.875], [0.5, 0.875]]}]}
    built = harness.build_scenario(harness.scenario_from_dict(spec))
    table = built.table
    for name in ("insulating", "all"):
        update = table.crack_update(name)
        dN = update.change()
        want = ndmap.nd_matrix(oracles.factorize(built.mesh, built.gamma0, **table.configs[name]),
                               built.basis).entries - table.nd("none").entries
        assert np.max(np.abs(dN - want)) <= 1e-13 * np.max(np.abs(table.nd("none").entries))
        Z = update.Z
        update.Z = Z + np.max(np.abs(Z))
        try:
            moved = update.change()
        finally:
            update.Z = Z
        assert np.max(np.abs(moved - dN)) <= 1e-12 * np.max(np.abs(dN))


def test_crack_signature_solves_its_update_once(monkeypatch):
    # the slits' update and its fold onto the tied vertices share one solve
    mesh = SIGNATURE_MESHES["rect"]
    cracks = signature_cracks(mesh, np.random.default_rng(0), "mixed", 3)
    assert {c.kind for c in cracks.components} == set(geometry.KINDS)
    seen = record_dense_solves(monkeypatch)
    background = ndmap.Background(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 12))
    ndmap.crack_signature(background, cracks)
    assert len(seen) > 1
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("shape, h, n", [("rect", 1 / 32, 8), ("rect", 0.25, 8), ("disk", 0.1, 8)])
def test_pixel_stiffness_matches_the_pixel_loop(shape, h, n):
    # all pixels in one pass, bit for bit the loop over pixels, under a
    # conductivity box and with pixels finer than the triangles
    mesh = build_rect_mesh(1.0, 1.0, h) if shape == "rect" else build_disk_mesh(1.0, h)
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0, 0.5, 0.7], "value": 3.3}]})
    region = geometry.interior_pixel_set(geometry.PixelGrid(mesh, n, n))
    got = ndmap._pixel_stiffness(mesh, gamma0, region)
    want = oracles.pixel_stiffness_loop(mesh, gamma0, region)
    assert sorted(got) == sorted(want) and len(got) > 4
    for pixel, (S, E) in want.items():
        assert np.array_equal(got[pixel][0], S)
        assert np.array_equal(got[pixel][1], E)


def test_region_maps_green_columns(monkeypatch):
    # a start solves one Green's column per boundary vertex of R0, the only
    # block the peel keeps, in blocks of at most M
    mesh = REGION_MESHES["rect", False]
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    R0 = geometry.interior_pixel_set(grid)
    inside = np.zeros(len(mesh.vertices), dtype=bool)
    outside = np.zeros(len(mesh.vertices), dtype=bool)
    for t, tri in enumerate(mesh.triangles.tolist()):
        (inside if grid.tri_pixel[t] in R0.members else outside)[tri] = True
    boundary = np.flatnonzero(inside & outside)
    calls = record_green_solves(monkeypatch)
    ndmap.RegionMaps(mesh, fem.Conductivity(mesh, 1.0), basis, R0)
    assert sum(len(c) for c in calls) == len(boundary)
    assert max(len(c) for c in calls) <= basis.M


def test_region_maps_split_and_empty_regions():
    # a strip that splits into two frozen components, then peels down to the
    # empty region, whose excluded and frozen matrices are the background's
    mesh = REGION_MESHES["rect", True]
    gamma0 = fem.Conductivity.from_spec(mesh, {"boxes": [{"box": [0, 0, 0.5, 1], "value": 4.0}]})
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    strip = geometry.PixelSet.from_rect(grid, 2, 4, 4, 4)
    maps = ndmap.RegionMaps(mesh, gamma0, basis, strip)
    for pixel in (grid.index(3, 4), grid.index(2, 4), grid.index(4, 4)):
        got = maps.matrices(pixel)
        maps.peel(pixel)
        assert_region_matches_factorization(mesh, gamma0, basis, maps.region, got, "both")
        if len(maps.region) == 2:
            assert maps.region.components().max() + 1 == 2
    assert len(maps.region) == 0
    background = ndmap.nd_matrix(fem.factorize(mesh, gamma0), basis)
    for N in maps.matrices():
        assert N.config_label == "none"
        assert np.max(np.abs(N.entries - background.entries)) <= 1e-10 * np.max(
            np.abs(background.entries)
        )
    for mode in ndmap.MODES:
        emptied = ndmap.RegionMaps(mesh, gamma0, basis, geometry.PixelSet(grid, [grid.index(3, 4)]), mode)
        emptied.peel(grid.index(3, 4))
        with pytest.raises(ValueError, match="not in the region"):
            emptied.matrices(grid.index(3, 4))
        with pytest.raises(ValueError, match="not in the region"):
            emptied.peel(grid.index(3, 4))
    with pytest.raises(ValueError, match="mode"):
        ndmap.RegionMaps(mesh, gamma0, basis, strip, "all")


def test_region_maps_tie_components_that_share_a_vertex():
    # pixels finer than the triangles: only every other pixel holds a
    # triangle, so each component is one pixel, and pixels 36, 50 and 52
    # meet at mesh vertices. The frozen side ties them together while
    # the excluded block keeps their shared vertices; peeling 36 leaves 50
    # and 52 as two components that still share one. Each region is
    # checked as a candidate and again after its fold, in every mode
    mesh = build_rect_mesh(1.0, 1.0, 0.25)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    for mode in ndmap.MODES:
        maps = ndmap.RegionMaps(mesh, gamma0, basis, geometry.PixelSet(grid, [36, 50, 52]), mode)
        assert_region_matches_factorization(mesh, gamma0, basis, maps.region, maps.matrices(), mode)
        split = maps.region.minus(36)
        assert geometry.pixelset_is_admissible(split) and split.components().max() == 1
        _, C, tie = geometry.region_closure(split, ties=True)
        assert np.all(tie[C] == 0)
        assert_region_matches_factorization(mesh, gamma0, basis, split, maps.matrices(36), mode)
        maps.peel(36)
        assert_region_matches_factorization(mesh, gamma0, basis, split, maps.matrices(), mode)
        assert_region_matches_factorization(
            mesh, gamma0, basis, split.minus(50), maps.matrices(50), mode
        )


# ------------------------------------------------------------------ #
# the configuration table's regions as updates of one background
# ------------------------------------------------------------------ #


def random_table_region(grid, rng, corners):
    """One to three pixel rectangles with corners from ``corners``, or None.

    Half the time the first rectangle is a 3x3 ring with one side pixel
    open: a ring with a closed hole is not admissible (its complement is not
    connected to the outside), so the open ring is the nearest region that
    wraps around a hole. Returns the admissible union clipped to the
    interior, or None.
    """
    inside = geometry.interior_pixel_set(grid).mask()
    mask = np.zeros_like(inside)
    for k in range(int(rng.integers(1, 4))):
        ring = k == 0 and rng.random() < 0.5
        h, w = (3, 3) if ring else (int(v) for v in rng.integers(1, 3, size=2))
        iy, ix = corners[rng.integers(len(corners))]
        rect = np.zeros_like(inside)
        rect[iy:iy + h, ix:ix + w] = True
        if ring:
            rect[iy + 1, ix + 1] = False
            rect[iy, ix + 1] = False
        mask |= rect
    region = geometry.PixelSet(grid, np.flatnonzero(mask & inside))
    return region if len(region) and geometry.pixelset_is_admissible(region) else None


def region_vertices(mesh, region):
    return np.unique(mesh.triangles[region.triangles()])


def boundary_vertices(mesh, region):
    # the vertices in a triangle of the region and in one outside it
    inside = np.zeros(len(mesh.triangles), dtype=bool)
    inside[region.triangles()] = True
    return np.intersect1d(mesh.triangles[inside], mesh.triangles[~inside])


def assert_table_matches_factorizations(table, names):
    # every configuration of the table, asked in the order ``names``,
    # against its own factorization: the regions within the RegionMaps bound,
    # the others bit for bit
    ref = FactorizedConfigurations(
        table.background, table.configs["all"]["cracks"], table.V, table.W
    )
    for name in names:
        got, want = table.nd(name), ref.nd(name)
        assert (got.config_label, got.kinds) == (want.config_label, want.kinds)
        if "excluded" in table.configs[name] or "frozen" in table.configs[name]:
            bound = 1e-10 * np.max(np.abs(want.entries))
            assert np.max(np.abs(got.entries - want.entries)) <= bound
        else:
            assert np.array_equal(got.entries, want.entries)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    case=st.sampled_from(["apart", "touch", "empty V", "empty W"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_configurations_match_factorized_table(shape, arc, box, case, seed):
    # differential oracle: the four region configurations as updates of one
    # background against one factorization per configuration, on random
    # admissible regions of one to three components, open rings, regions
    # that touch and so share boundary vertices, and an empty region; the
    # first request is for a random configuration
    mesh = REGION_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    interior = geometry.interior_pixel_set(grid)
    corners = np.argwhere(interior.mask())
    empty = geometry.PixelSet(grid, ())
    for _ in range(100):
        V = random_table_region(grid, rng, corners)
        if V is None:
            continue
        if case.startswith("empty"):
            V, W = (empty, V) if case == "empty V" else (V, empty)
            break
        if case == "touch":
            ring = geometry.PixelSet(grid, V.dilate().members - V.members)
            W = random_table_region(grid, rng, np.argwhere(ring.mask() & interior.mask()))
            if W is not None:
                W = geometry.PixelSet(grid, W.members - V.members)
            if W is None or not len(W) or not geometry.pixelset_is_admissible(W):
                continue
            if len(np.intersect1d(region_vertices(mesh, V), region_vertices(mesh, W))):
                break
        else:
            W = random_table_region(grid, rng, corners)
            if W is not None:
                break
    else:
        raise AssertionError("no region pair drawn")
    table = ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), CrackSet(), V, W)
    names = list(table.configs)
    rng.shuffle(names)
    # the first region request solves one Green's column per boundary vertex
    # of V or W, a shared one once, none of them the pin, in blocks of at most M
    first = next(name for name in names if name.startswith(("excluded", "frozen")))
    with pytest.MonkeyPatch.context() as mp:
        calls = record_green_solves(mp)
        table.nd(first)
    columns = np.concatenate(calls).tolist() if calls else []
    boundary = np.union1d(boundary_vertices(mesh, V), boundary_vertices(mesh, W))
    assert sorted(columns) == np.setdiff1d(boundary, mesh.gamma_vertices()[:1]).tolist()
    assert max(map(len, calls), default=0) <= basis.M
    assert_table_matches_factorizations(table, names)


@pytest.mark.parametrize("mesh, n, members", [
    (build_rect_mesh(1.0, 1.0, 0.25), 8, [50, 52]),
    (build_disk_mesh(1.0, 0.3), 12, [102, 111, 112, 114]),
], ids=["rect", "disk"])
def test_configurations_tie_components_that_share_a_vertex(mesh, n, members):
    # pixels finer than the triangles: the region's two components meet at a
    # mesh vertex, which is one dof, so freezing ties them together
    grid = geometry.PixelGrid(mesh, n, n)
    V = geometry.PixelSet(grid, members)
    assert geometry.pixelset_is_admissible(V) and V.components().max() == 1
    # the closure joins the two components into one group
    _, C, tie = geometry.region_closure(V, ties=True)
    assert np.all(tie[C] == 0)
    background = ndmap.Background(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 6))
    table = ndmap.Configurations(background, CrackSet(), V, geometry.PixelSet(grid, ()))
    assert_table_matches_factorizations(table, list(table.configs))


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["rect", "disk"]),
    arc=st.booleans(),
    box=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_frozen_from_the_excluded_region_is_frozen_from_the_background(shape, arc, box, seed):
    # the identity the upper peel rests on: frozen, a region's triangles
    # carry no energy, so the tie update of the excluded region (its own N,
    # Z and G on C) gives the frozen matrix of the background's tie update
    mesh = REGION_MESHES[shape, arc]
    rng = np.random.default_rng(seed)
    spec = 1.0
    if box:
        x0, y0 = rng.uniform(-1.0, 0.5, 2)
        spec = {"boxes": [{"box": [x0, y0, x0 + 0.6, y0 + 0.6], "value": rng.uniform(0.1, 10.0)}]}
    gamma0 = fem.Conductivity.from_spec(mesh, spec)
    basis = ndmap.build_basis(mesh, 6)
    grid = geometry.PixelGrid(mesh, 8, 8)
    corners = np.argwhere(geometry.interior_pixel_set(grid).mask())
    pin = mesh.gamma_vertices()[0]
    for _ in range(100):
        region = random_table_region(grid, rng, corners)
        if region is not None and not geometry.region_closure(region)[0][pin]:
            break
    else:
        raise AssertionError("no region drawn")
    closure = geometry.region_closure(region, ties=True)
    C = np.flatnonzero(closure[1])
    got = []
    weighted = fem.gamma_mass(mesh) @ basis.vectors
    for excluded in (region, None):
        fact = fem.factorize(mesh, gamma0, excluded=excluded)
        N = ndmap.nd_matrix(fact, basis)
        Z, (G,) = ndmap._green_block(fact, fact.dm.vertex_dof[C], basis.M,
                                     [np.arange(len(C))[None]], weighted)
        got.append(ndmap._frozen(N, Z, G[0], closure, region, pin).entries)
    assert np.max(np.abs(got[0] - got[1])) <= 1e-12 * np.max(np.abs(N.entries))


def test_region_matrices_memory_stays_near_nd_matrix():
    # filling the four region matrices peaks within a tenth above one
    # nd_matrix of the background (measured: 1.03); keeping the n x M
    # potentials through the Green's solves measured 1.25, and keeping the
    # full-mesh element stiffness across the factorization 1.16
    mesh = build_rect_mesh(1.0, 1.0, 1.0 / 32)
    grid = geometry.PixelGrid(mesh, 8, 8)
    V = geometry.PixelSet.from_rect(grid, 1, 2, 4, 2)
    W = geometry.PixelSet.from_rect(grid, 3, 5, 6, 5)
    gamma0 = fem.Conductivity(mesh, 1.0)
    basis = ndmap.build_basis(mesh, 32)

    def peak(fn):
        fn()  # fill the mesh caches outside the measurement
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    regions = peak(
        lambda: ndmap.Configurations(ndmap.Background(mesh, gamma0, basis), CrackSet(), V,
                                     W).nd("excluded V")
    )
    currents = peak(lambda: ndmap.nd_matrix(fem.factorize(mesh, gamma0), basis))
    assert regions <= 1.1 * currents


def test_configurations_with_the_pinned_vertex_in_a_region():
    # a disk whose arc starts at a vertex of an interior pixel: the pinned
    # vertex is a boundary vertex of V and of one of W's two components, so
    # the updates drop its row, and freezing ties that component to zero
    mesh = mark_gamma(build_disk_mesh(1.0, 0.1), {"angle": np.radians([-151.0, -100.0]).tolist()})
    grid = geometry.PixelGrid(mesh, 12, 12)
    pin = mesh.gamma_vertices()[0]
    V = geometry.PixelSet(grid, [37])
    W = geometry.PixelSet(grid, [37, 46])
    assert pin in region_vertices(mesh, V)
    assert W.components().max() == 1
    background = ndmap.Background(mesh, fem.Conductivity(mesh, 1.0), ndmap.build_basis(mesh, 8))
    table = ndmap.Configurations(background, CrackSet(), V, W)
    assert_table_matches_factorizations(table, ["frozen V", *table.configs])


def test_configurations_refuse_a_region_enclosing_an_arc_vertex():
    # a coarse mesh under fine pixels: the corner (0, 0), the pinned arc
    # vertex, has its one triangle in an interior pixel, so excluding that
    # pixel takes its dof; the table refuses the regions as the excluded
    # region's factorization does
    mesh = build_rect_mesh(1.0, 1.0, 0.5)
    grid = geometry.PixelGrid(mesh, 6, 6)
    V = geometry.PixelSet(grid, [7])
    assert geometry.pixelset_is_admissible(V)
    gamma0 = fem.Conductivity(mesh, 1.0)
    background = ndmap.Background(mesh, gamma0, ndmap.build_basis(mesh, 4))
    table = ndmap.Configurations(background, CrackSet(), V, V)
    for name in ("frozen V", "excluded W"):
        with pytest.raises(ValueError, match="lost its dof"):
            table.nd(name)
    with pytest.raises(ValueError, match="lost its dof"):
        fem.factorize(mesh, gamma0, excluded=V)
