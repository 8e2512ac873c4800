import warnings
from dataclasses import replace

import numpy as np
import pytest

from vdwmech.bonded import detect_topology
from vdwmech.composite import CompositeModel
from vdwmech.errors import GeometryError, InputError
from vdwmech.generators import (ChainSpec, CntSpec, PeCrystalSpec, cap_indices,
                                make_chain_pair, make_pe_crystal, make_swcnt)
from vdwmech.minimize import MinimizerConfig, minimize
from vdwmech.quasistatic import LoadingProtocol, run_quasistatic
from vdwmech.records import emit_records
from vdwmech.units import EV_A3_GPA


def _chain_system(n=8, gap=6.0):
    spec = ChainSpec(n, n, gap=gap, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s), vdw="pw")
    _, upper_caps = cap_indices(spec)
    return s, model, tuple(int(i) for i in upper_caps)


def test_zero_like_increment_records_identical():
    # bonded-only: the relaxed state carries no residual load on the caps
    spec = ChainSpec(8, 8, gap=6.0, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s))
    _, upper_caps = cap_indices(spec)
    driven = tuple(int(i) for i in upper_caps)
    relaxed = minimize(s, model, MinimizerConfig(force_tolerance=1e-6)).structure
    protocol = LoadingProtocol(
        kind="displacement", increment=1e-12, step_count=3, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=1e-6))
    result = run_quasistatic(relaxed, model, protocol)
    assert len(result.records) == 3
    reactions = [r.reaction for r in result.records]
    assert np.allclose(reactions, reactions[0], atol=1e-9)
    assert abs(reactions[0]) < 1e-5
    energies = [r.e_total for r in result.records]
    assert np.allclose(energies, energies[0], atol=1e-10)


def test_protocol_determinism():
    s, model, driven = _chain_system()
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.25, step_count=4, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=1e-3),
        perturbation=0.01, perturbation_seed=11)
    a = run_quasistatic(s, model, protocol)
    model2 = CompositeModel(topology=model.topology, vdw="pw")
    b = run_quasistatic(s, model2, protocol)
    for ra, rb in zip(a.records, b.records):
        assert ra.e_total == rb.e_total
        assert ra.reaction == rb.reaction


def test_displacement_protocol_moves_driven_set():
    s, model, driven = _chain_system()
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.5, step_count=2, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=2e-3))
    result = run_quasistatic(s, model, protocol)
    moved = result.final.positions[list(driven), 1]
    assert np.allclose(moved, s.positions[list(driven), 1] - 1.0)
    assert len(result.records) == 2
    assert result.records[1].applied == pytest.approx(-1.0)


def test_records_equal_a_reevaluation_of_the_final_state():
    s, model, driven = _chain_system()
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.25, step_count=2, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=1e-3))
    result = run_quasistatic(s, model, protocol)
    (e_tot, e_bond, e_vdw), forces = model.energy_and_forces(result.final)
    r = result.records[-1]
    assert (r.e_total, r.e_bonded, r.e_vdw) == (e_tot, e_bond, e_vdw)
    assert r.reaction == float(forces[list(driven), 1].sum())


def test_load_step_reaction_converges_with_force_tolerance(monkeypatch):
    # the five MBD chain-pair load steps: 1e-3 eV/A relaxations give the
    # reactions of 1e-6 eV/A ones to 1e-3 eV/A, and starting each step from
    # the bonded linear response takes fewer evaluations than starting it
    # from the plain displaced state
    import vdwmech.quasistatic as qs_mod

    spec = ChainSpec(28, 28, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s), vdw="mbd")
    driven = tuple(int(i) for i in cap_indices(spec)[1])

    def path(ftol):
        protocol = LoadingProtocol(
            kind="displacement", increment=-0.2, step_count=5, driven=driven,
            axis=1, minimizer=MinimizerConfig(force_tolerance=ftol))
        records = run_quasistatic(s, model, protocol).records
        assert len(records) == 5 and all(r.converged for r in records)
        return records

    loose, tight = path(1e-3), path(1e-6)
    for a, b in zip(loose, tight):
        assert abs(a.reaction - b.reaction) <= 1e-3
    monkeypatch.setattr(qs_mod, "minimize",
                        lambda *args, origin=None, **kwargs: minimize(*args, **kwargs))
    plain = path(1e-3)
    assert sum(r.evaluations for r in loose) < sum(r.evaluations for r in plain)


def test_mbd_pair_curvature_takes_fewer_load_step_evaluations(monkeypatch):
    # the same five MBD chain-pair steps at 1e-3 eV/A: the pair blocks of
    # the MBD curvature in the preconditioner take fewer evaluations than
    # the bonded P alone (27 against 36 when measured)
    spec = ChainSpec(28, 28, hydrogen_caps=True)
    s = make_chain_pair(spec)
    model = CompositeModel(topology=detect_topology(s), vdw="mbd")
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.2, step_count=5,
        driven=tuple(int(i) for i in cap_indices(spec)[1]), axis=1,
        minimizer=MinimizerConfig(force_tolerance=1e-3))

    def evaluations():
        records = run_quasistatic(s, model, protocol).records
        assert len(records) == 5 and all(r.converged for r in records)
        return sum(r.evaluations for r in records)

    with_pairs = evaluations()
    monkeypatch.setattr(model, "pair_curvature", lambda structure: None)
    assert with_pairs < evaluations()


def test_refused_predicted_start_falls_back_to_the_displaced_state(monkeypatch):
    s, model, driven = _chain_system()
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.25, step_count=1, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=1e-3))
    evaluate = model.energy_and_forces
    seen = []

    def refuse_first(structure):
        seen.append(structure.positions)
        if len(seen) == 1:
            raise GeometryError("refused")
        return evaluate(structure)

    monkeypatch.setattr(model, "energy_and_forces", refuse_first)
    result = run_quasistatic(s, model, protocol)
    displaced = s.positions.copy()
    displaced[list(driven), 1] -= 0.25
    # the refused call was the predicted start; the next one the displaced state
    assert not np.array_equal(seen[0], displaced)
    assert np.array_equal(seen[1], displaced)
    r = result.records[0]
    assert r.converged and not result.halted
    assert r.evaluations == len(seen)


def test_refused_relaxation_halves_the_increment(monkeypatch):
    import vdwmech.quasistatic as qs_mod

    s, model, driven = _chain_system(n=4)
    calls, refused = [], {1}

    def counting(*args, **kwargs):
        calls.append(minimize(*args, **kwargs))
        return replace(calls[-1], converged=len(calls) not in refused and calls[-1].converged)

    monkeypatch.setattr(qs_mod, "minimize", counting)
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.2, step_count=1, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=1e-3))
    result = run_quasistatic(s, model, protocol)
    # the refused full step, then two half steps
    assert len(calls) == 3 and not result.halted
    r = result.records[-1]
    assert r.converged and r.applied == protocol.increment
    # the record sums the counters of all three relaxations
    assert (r.halvings, r.evaluations, r.iterations, r.rejected) == \
        (1, *(sum(getattr(c, k) for c in calls) for k in ("evaluations", "iterations", "rejected")))

    # no relaxation converges: 1 + 4 halvings, then the run halts
    calls.clear()
    refused.clear()
    protocol = replace(protocol, step_count=2, minimizer=MinimizerConfig(max_iterations=0))
    result = run_quasistatic(s, model, protocol)
    assert len(calls) == 5 and not any(res.converged for res in calls)
    assert result.halted and len(result.records) == 1
    assert not result.records[-1].converged
    assert result.records[-1].applied == protocol.increment / 16
    assert result.records[-1].halvings == 4


def test_driven_atoms_must_be_fixed():
    s, model, _ = _chain_system()
    protocol = LoadingProtocol(
        kind="displacement", increment=0.1, step_count=1, driven=(0, 1),
        axis=1, minimizer=MinimizerConfig())
    with pytest.raises(InputError):
        run_quasistatic(s, model, protocol)


def test_cell_strain_protocol_records_stress():
    s = make_pe_crystal(PeCrystalSpec(2, 1, 1))
    model = CompositeModel(topology=detect_topology(s))
    protocol = LoadingProtocol(
        kind="cell-strain", increment=0.02, step_count=2, component=(1, 1),
        minimizer=MinimizerConfig(force_tolerance=5e-3),
        compute_stress=True)
    result = run_quasistatic(s, model, protocol)
    assert len(result.records) == 2
    r = result.records[-1]
    assert r.sigma is not None and r.sigma.shape == (3, 3)
    assert r.strain == pytest.approx(0.04 / 7.40, rel=1e-6)
    assert r.sigma_drive is not None
    assert result.records[0].stiffness is None
    assert result.records[1].stiffness is not None
    assert result.final.cell.matrix[1, 1] == pytest.approx(7.44)


def test_relaxed_others_cell_strain_relaxes_the_other_components():
    """Straining yy in relaxed-others mode relaxes xx and zz with the atoms,
    to zero stress at every step."""
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    protocol = LoadingProtocol(kind="cell-strain", increment=0.02, step_count=2,
                               component=(1, 1), cell_mode="relaxed-others",
                               compute_stress=True)
    result = run_quasistatic(s, CompositeModel(topology=detect_topology(s)), protocol)
    assert not result.halted and len(result.records) == 2
    for r in result.records:
        assert r.converged
        assert abs(r.sigma[0, 0]) < 1e-3 and abs(r.sigma[2, 2]) < 1e-3
    assert result.final.cell.matrix[1, 1] == pytest.approx(7.44)


def test_shear_cell_strain_normalizes_by_row_length():
    # component (0, 1) of an orthogonal cell starts at 0; the strain is
    # the change over |a_0|
    s = make_pe_crystal(PeCrystalSpec(1, 1, 1))
    model = CompositeModel(topology=detect_topology(s))
    protocol = LoadingProtocol(
        kind="cell-strain", increment=0.02, step_count=2, component=(0, 1),
        minimizer=MinimizerConfig(force_tolerance=5e-3), compute_stress=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_quasistatic(s, model, protocol)
    a0 = np.linalg.norm(s.cell.matrix[0])
    for r in result.records:
        assert r.strain == pytest.approx(r.applied / a0, rel=1e-12)
        assert np.isfinite(r.strain)
    assert result.records[-1].strain == pytest.approx(0.04 / a0, rel=1e-6)
    assert np.isfinite(result.records[-1].stiffness)


def test_protocol_validation(monkeypatch):
    with pytest.raises(InputError):
        LoadingProtocol(kind="squeeze", increment=0.1, step_count=1)
    for increment in (0.0, 1e-16, np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            LoadingProtocol(kind="displacement", increment=increment, step_count=1,
                            driven=(0,))
    with pytest.raises(InputError):
        LoadingProtocol(kind="displacement", increment=0.1, step_count=0,
                        driven=(0,))
    with pytest.raises(InputError):
        LoadingProtocol(kind="displacement", increment=0.1, step_count=1)
    for kw in ({"face_area": np.nan}, {"face_area": np.inf}, {"reference_length": -1.0},
               {"reference_length": 0.0}, {"reference_length": np.nan},
               {"reference_length": np.inf}):
        with pytest.raises(InputError):
            LoadingProtocol(kind="displacement", increment=0.1, step_count=1,
                            driven=(0,), **kw)
    # stress needs a 3-D periodic cell; an axial tube is refused before any relaxation
    import vdwmech.quasistatic as qs_mod

    def no_relax(*args, **kwargs):
        raise AssertionError("minimize called before the stress check")

    monkeypatch.setattr(qs_mod, "minimize", no_relax)
    tube = make_swcnt(CntSpec(4, 4, 4), axial_period=True)
    protocol = LoadingProtocol(kind="cell-strain", increment=0.01, step_count=1,
                               component=(2, 2), compute_stress=True)
    with pytest.raises(InputError, match="fully periodic"):
        run_quasistatic(tube, CompositeModel(vdw="pw"), protocol)
    # axis and component index Cartesian directions; seeds are non-negative
    for kw in ({"axis": 3}, {"axis": -1}, {"component": (3, 0)}, {"component": (0, -1)},
               {"component": (0,)}, {"perturbation_seed": -1},
               {"perturbation": np.nan}, {"perturbation": np.inf}, {"perturbation": -0.05}):
        with pytest.raises(InputError):
            LoadingProtocol(kind="displacement", increment=0.1, step_count=1,
                            driven=(0,), **kw)
    # counts are integers; a fractional perturbation seed crashed numpy
    for kw in ({"step_count": 2.5}, {"perturbation_seed": 1.5, "perturbation": 0.01}):
        with pytest.raises(InputError, match=next(iter(kw))):
            LoadingProtocol(kind="displacement", increment=0.1, driven=(0,),
                            **{"step_count": 1, **kw})
    # a repeated driven atom would count twice in the reaction
    with pytest.raises(InputError, match="repeat"):
        LoadingProtocol(kind="displacement", increment=0.1, step_count=1, driven=(10, 10))
    # floats and bools are not atom indices; numpy integers are
    for driven in ((10.5,), (True,), (10.0, 11.0)):
        with pytest.raises(InputError, match="must be integers"):
            LoadingProtocol(kind="displacement", increment=0.1, step_count=1, driven=driven)
    LoadingProtocol(kind="displacement", increment=0.1, step_count=1,
                    driven=(np.int64(10), np.int32(11)))
    # driven atoms must exist and be fully fixed, and are checked before any relaxation
    pair = make_chain_pair(ChainSpec(4, 4, gap=6.0, hydrogen_caps=True))
    for driven, match in (((100,), "driven atom indices"), ((len(pair),), "driven atom indices"),
                          ((-1,), "driven atom indices"), ((0, 10), "fully fixed")):
        protocol = LoadingProtocol(kind="displacement", increment=0.1, step_count=1,
                                   driven=driven)
        with pytest.raises(InputError, match=match):
            run_quasistatic(pair, CompositeModel(vdw="pw"), protocol)


def test_face_area_and_reaction_stress():
    s, model, driven = _chain_system(n=4)

    def run(face_area):
        protocol = LoadingProtocol(
            kind="displacement", increment=-0.3, step_count=3, driven=driven,
            axis=1, minimizer=MinimizerConfig(force_tolerance=5e-3),
            reference_length=10.0, face_area=face_area)
        return run_quasistatic(s, model, protocol).records

    recs = run(100.0)
    for r in recs:
        assert r.sigma_drive == pytest.approx(abs(r.reaction) / 100.0 * EV_A3_GPA)
    # stiffness is the finite difference of sigma_drive over strain
    for prev, cur in zip(recs, recs[1:]):
        assert cur.stiffness == pytest.approx(
            (cur.sigma_drive - prev.sigma_drive) / (cur.strain - prev.strain))
    assert recs[0].stiffness is None
    # halving the face area doubles the reaction stress
    for r, h in zip(recs, run(50.0)):
        assert h.reaction == r.reaction
        assert h.sigma_drive == pytest.approx(2.0 * r.sigma_drive)
    # no face area: no reaction stress and no stiffness
    assert all(r.sigma_drive is None and r.stiffness is None for r in run(None))
    for bad in (0.0, -1.0):
        with pytest.raises(InputError):
            LoadingProtocol(kind="displacement", increment=0.1, step_count=1,
                            driven=driven, face_area=bad)


def test_emit_records_csv(tmp_path):
    s, model, driven = _chain_system(n=4)
    protocol = LoadingProtocol(
        kind="displacement", increment=-0.3, step_count=2, driven=driven,
        axis=1, minimizer=MinimizerConfig(force_tolerance=5e-3),
        reference_length=10.0, face_area=20.0)
    result = run_quasistatic(s, model, protocol)
    for r in result.records:
        assert r.sigma_drive == abs(r.reaction) / 20.0 * EV_A3_GPA
    path = tmp_path / "records.csv"
    emit_records(result.records, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "strain" in header and "stiffness_GPa" in header
    assert "sigma_drive_GPa" in header
    # each step's energy-and-forces calls, as a positive integer, then the
    # minimizer's trial steps, its rejected ones and the increment halvings
    counters = ["evaluations", "iterations", "rejected", "halvings"]
    column = header.index("evaluations")
    assert header[column:column + 4] == counters
    for r, line in zip(result.records, lines[1:]):
        assert line.split(",")[column:column + 4] == [str(getattr(r, k)) for k in counters]
        assert r.evaluations > 0 and r.iterations > 0
    # deterministic formatting: re-emitting produces identical bytes
    path2 = tmp_path / "records2.csv"
    emit_records(result.records, str(path2))
    assert path.read_bytes() == path2.read_bytes()
