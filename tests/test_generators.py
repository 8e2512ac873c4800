import numpy as np
import pytest

from conftest import loop_swcnt
from vdwmech.errors import InputError
from vdwmech.generators import (CC_GRAPHENE, ChainSpec, CntSpec, PeCrystalSpec,
                                cap_indices, cnt_radius, make_chain_pair, make_pe_crystal,
                                make_swcnt, upper_chain_indices)


def test_chain_pair_capped_counts():
    s = make_chain_pair(ChainSpec(28, 28, gap=8.0, hydrogen_caps=True))
    assert len(s) == 60
    assert s.species.count("C") == 56
    assert s.species.count("H") == 4
    # caps are fully fixed, carbons free
    lower, upper = cap_indices(ChainSpec(28, 28, gap=8.0, hydrogen_caps=True))
    assert s.fixed[np.concatenate([lower, upper])].all()
    assert not s.fixed[:56].any()


def test_chain_pair_minimal():
    s = make_chain_pair(ChainSpec(1, 1, gap=5.0))
    assert len(s) == 2
    assert np.linalg.norm(s.positions[1] - s.positions[0]) == pytest.approx(5.0)


def test_chain_length_arithmetic():
    spec = ChainSpec(10, 200, gap=8.0)
    s = make_chain_pair(spec)
    lower = s.positions[:200]
    assert lower[:, 0].max() - lower[:, 0].min() == pytest.approx(238.8)
    upper = s.positions[upper_chain_indices(spec)]
    assert np.all(upper[:, 1] == 8.0)
    assert np.all(lower[:, 1] == 0.0)


def test_chain_spec_validation():
    with pytest.raises(InputError):
        ChainSpec(0, 5)
    for gap in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError, match="gap"):
            ChainSpec(5, 5, gap=gap)
    # counts are integers; gap and caps are keywords, so the positional
    # call of a removed chain spacing fails instead of building a pair
    for bad in ((2.5, 3), (3, 2.5), (True, 3)):
        with pytest.raises(InputError, match="n_upper|n_lower"):
            ChainSpec(*bad)
    with pytest.raises(TypeError):
        ChainSpec(4, 4, 1.2, 6.0)


def test_swcnt_geometry():
    spec = CntSpec(8, 8, 20)
    s = make_swcnt(spec, fixed_end_layers=1)
    assert len(s) == 640
    r = np.hypot(s.positions[:, 0], s.positions[:, 1])
    assert np.abs(r - cnt_radius(spec)).max() < 1e-8
    assert cnt_radius(spec) == pytest.approx(5.42, abs=0.01)
    # radius formula a sqrt(n^2+nm+m^2)/(2 pi)
    a = np.sqrt(3) * 1.42
    assert cnt_radius(spec) == pytest.approx(a * np.sqrt(192) / (2 * np.pi), rel=1e-12)
    length = s.positions[:, 2].max() - s.positions[:, 2].min()
    assert length == pytest.approx(48.0, abs=0.5)
    assert int(s.fixed.all(axis=1).sum()) == 64


def test_swcnt_nearest_neighbor_distances():
    s = make_swcnt(CntSpec(8, 8, 6))
    pos = s.positions
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    nn = np.sort(d, axis=1)[:, 0]
    assert nn.min() > 1.40 and nn.max() < 1.44


def test_swcnt_chiral_tube():
    spec = CntSpec(10, 4, 3)
    s = make_swcnt(spec)
    r = np.hypot(s.positions[:, 0], s.positions[:, 1])
    assert np.abs(r - cnt_radius(spec)).max() < 1e-8
    pos = s.positions
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    nn = np.sort(d, axis=1)[:, 0]
    assert nn.min() > 1.40 and nn.max() < 1.44


def test_swcnt_unroll_round_trip():
    spec = CntSpec(8, 8, 4)
    s = make_swcnt(spec)
    acc = CC_GRAPHENE
    a1 = acc * np.array([np.sqrt(3.0), 0.0])
    a2 = acc * np.array([np.sqrt(3.0) / 2.0, 1.5])
    basis = [np.array([0.0, 0.0]), acc * np.array([np.sqrt(3.0) / 2.0, 0.5])]
    radius = cnt_radius(spec)
    ch_len = 2 * np.pi * radius
    lat = np.stack([a1, a2], axis=1)

    for p in s.positions:
        phi = np.arctan2(p[1], p[0]) % (2 * np.pi)
        planar = np.array([phi / (2 * np.pi) * ch_len, p[2]])
        # rotate the planar frame back onto the lattice frame
        ch_hat = (8 * a1 + 8 * a2)
        ch_hat = ch_hat / np.linalg.norm(ch_hat)
        tv_hat = np.array([-ch_hat[1], ch_hat[0]])
        point = planar[0] * ch_hat + planar[1] * tv_hat
        ok = False
        for b in basis:
            w = np.linalg.solve(lat, point - b)
            if np.abs(w - np.round(w)).max() < 1e-8:
                ok = True
                break
        assert ok, f"unrolled point {point} off the graphene lattice"


@pytest.mark.parametrize("nm", [(8, 8), (10, 0), (6, 4), (12, 3)])
def test_swcnt_matches_loop_oracle(nm):
    """The array-built lattice gives the loop's positions to the bit, in the
    same atom order, and the same fixed ends."""
    spec = CntSpec(*nm, rings=3)
    s = make_swcnt(spec, fixed_end_layers=1)
    positions, fixed = loop_swcnt(spec, fixed_end_layers=1)
    assert np.array_equal(s.positions, positions)
    assert np.array_equal(s.fixed, fixed) and fixed.any()


def test_cnt_spec_validation():
    with pytest.raises(InputError):
        CntSpec(4, 8, 3)
    with pytest.raises(InputError):
        CntSpec(0, 0, 3)
    with pytest.raises(InputError):
        CntSpec(8, 8, 0)
    # a fractional count was taken as its ceiling (2.5 rings built 3)
    for bad, name in (((4, 4, 2.5), "rings"), ((4.0, 4, 2), "n"), ((4, 4.0, 2), "m")):
        with pytest.raises(InputError, match=f"{name} must be an integer"):
            CntSpec(*bad)
    with pytest.raises(InputError, match="fixed_end_layers"):
        make_swcnt(CntSpec(4, 4, 2), fixed_end_layers=-1)


def test_pe_crystal_spec_validation():
    for bad in ((0, 1, 1), (1, -1, 1), (1.5, 1, 1), (1, 1, 2.0)):
        with pytest.raises(InputError, match="nx|ny|nz"):
            PeCrystalSpec(*bad)


def test_pe_crystal_counts():
    assert len(make_pe_crystal(PeCrystalSpec())) == 12
    assert len(make_pe_crystal(PeCrystalSpec(2, 2, 2))) == 96
    s = make_pe_crystal(PeCrystalSpec(10, 1, 1))
    assert len(s) == 120
    # chain axis along x: cell x = 10 repeats of the chain period
    assert s.cell.matrix[0, 0] == pytest.approx(25.4)
    assert s.cell.matrix[1, 1] == pytest.approx(7.40)
    assert s.cell.matrix[2, 2] == pytest.approx(4.93)


def test_pe_crystal_composition_and_bonds():
    from vdwmech.bonded import detect_topology
    s = make_pe_crystal(PeCrystalSpec())
    assert s.species.count("C") == 4
    assert s.species.count("H") == 8
    topo = detect_topology(s)
    # per cell: 4 C-C bonds (2 per chain via periodic x) + 8 C-H
    assert len(topo.bonds) == 12
    counts = {"CC": 0, "CH": 0}
    for i, j in topo.bonds:
        key = "".join(sorted(s.species[i] + s.species[j]))
        counts["CC" if key == "CC" else "CH"] += 1
    assert counts == {"CC": 4, "CH": 8}


def test_generators_deterministic():
    a = make_pe_crystal(PeCrystalSpec(2, 1, 1))
    b = make_pe_crystal(PeCrystalSpec(2, 1, 1))
    assert np.array_equal(a.positions, b.positions)
    c = make_swcnt(CntSpec(8, 8, 3))
    d = make_swcnt(CntSpec(8, 8, 3))
    assert np.array_equal(c.positions, d.positions)
    e = make_chain_pair(ChainSpec(5, 7, gap=6.0, hydrogen_caps=True))
    f = make_chain_pair(ChainSpec(5, 7, gap=6.0, hydrogen_caps=True))
    assert np.array_equal(e.positions, f.positions)
