import csv
import warnings

import numpy as np
import pytest

from vdwmech.cli import cli
from vdwmech.config import RunConfig
from vdwmech.errors import InputError, ParseError
from vdwmech.composite import CompositeModel
from vdwmech.generators import (ChainSpec, CntSpec, PeCrystalSpec, make_chain_pair,
                                make_pe_crystal, make_swcnt, upper_chain_indices)
from vdwmech.minimize import MinimizerConfig
from vdwmech.quasistatic import StepRecord
from vdwmech.records import emit_records
from vdwmech.xyz import read_xyz, write_xyz


def test_config_defaults_and_types():
    cfg = RunConfig()
    assert cfg["model.vdw"] == "none"
    assert cfg["model.mbd_beta"] == 1.0
    # keys that mirror a library field take its default
    assert cfg["relax.force_tolerance"] == MinimizerConfig().force_tolerance == 1e-3
    cfg.set("model.vdw", "mbd")
    cfg.set("md.steps", "500")
    assert cfg["md.steps"] == 500
    cfg.set("protocol.face_area", "none")
    assert cfg["protocol.face_area"] is None
    # the reach of the vdW sums is not configurable beyond model.mbd_shells;
    # the minimizer's step cap, the halving budget, the chain spacing and the
    # tube's bond length are constants, the quasi-static perturbation
    # takes `seed`, and model.k_phi = 0 switches the torsions off
    for key in ("model.pw_cutoff", "model.mbd_shell_tol", "model.include_dihedrals",
                "relax.initial_step",
                "protocol.max_increment_halvings", "protocol.perturbation_seed",
                "sweep.spacing", "generate.spacing", "generate.bond_length"):
        with pytest.raises(InputError, match="unknown config key"):
            cfg.set(key, "1")
    cfg.set("sweep.h_values", "6, 8, 10")
    assert cfg["sweep.h_values"] == (6.0, 8.0, 10.0)


def test_unknown_keys_rejected():
    cfg = RunConfig()
    with pytest.raises(InputError):
        cfg.set("model.unknown", "1")
    with pytest.raises(InputError):
        RunConfig({"bogus": 1})
    with pytest.raises(InputError):
        cfg.set("model.vdw", "lj")


def test_manifest_round_trip_lossless(tmp_path):
    cfg = RunConfig()
    cfg.set("model.vdw", "mbd")
    cfg.set("model.mbd_beta", "2.3")
    cfg.set("protocol.increment", "-0.053")
    cfg.set("seed", "42")
    path = tmp_path / "run.cfg"
    cfg.dump(str(path))
    back = RunConfig.load(str(path))
    assert back.values == cfg.values
    # and a second dump is byte-identical
    path2 = tmp_path / "run2.cfg"
    back.dump(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_cli_energy_and_forces(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(3, 3, gap=6.0))
    xyz = tmp_path / "in.xyz"
    write_xyz(s, str(xyz))
    rc = cli(["energy", "--input", str(xyz), "--set", "model.vdw=pw"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "e_total_eV" in out and "e_vdw_eV" in out
    vals = {line.split()[0]: float(line.split()[1])
            for line in out.strip().splitlines() if line.startswith("e_")}
    assert vals["e_total_eV"] == pytest.approx(vals["e_bonded_eV"] + vals["e_vdw_eV"])
    assert vals["e_vdw_eV"] < 0

    fcsv = tmp_path / "forces.csv"
    rc = cli(["forces", "--input", str(xyz), "--output", str(fcsv),
              "--set", "model.vdw=pw"])
    assert rc == 0
    lines = fcsv.read_text().splitlines()
    assert len(lines) == len(s) + 1


@pytest.mark.parametrize("vdw", ["pw", "mbd"])
def test_cli_energy_of_zero_atoms(tmp_path, capsys, vdw):
    """energy, forces and relax on a file of zero atoms exit 0, and no
    warning is raised on the way."""
    xyz = tmp_path / "empty.xyz"
    xyz.write_text("0\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["energy", "--input", str(xyz), "--set", f"model.vdw={vdw}"]) == 0
        assert "e_total_eV 0.0000000000e+00" in capsys.readouterr().out
        assert cli(["forces", "--input", str(xyz), "--set", f"model.vdw={vdw}"]) == 0
        assert "max_force_eV_per_A 0.0000000000e+00" in capsys.readouterr().out
        out = tmp_path / "relaxed.xyz"
        assert cli(["relax", "--input", str(xyz), "--output", str(out),
                    "--set", f"model.vdw={vdw}"]) == 0
        assert capsys.readouterr().out.startswith("converged 1 iterations 0")


def test_cli_generate_and_relax(tmp_path, capsys):
    out = tmp_path / "chain.xyz"
    rc = cli(["generate", "--output", str(out),
              "--set", "generate.kind=chain-pair",
              "--set", "generate.n_upper=4", "--set", "generate.n_lower=4",
              "--set", "generate.gap=6.0"])
    assert rc == 0
    s = read_xyz(str(out))
    assert len(s) == 12
    assert (tmp_path / "chain.xyz.manifest").exists()

    relaxed = tmp_path / "relaxed.xyz"
    rc = cli(["relax", "--input", str(out), "--output", str(relaxed),
              "--set", "relax.force_tolerance=1e-4"])
    assert rc == 0
    assert read_xyz(str(relaxed)).positions.shape == (12, 3)
    words = capsys.readouterr().out.split()
    counts = {k: int(words[words.index(k) + 1])
              for k in ("iterations", "evaluations", "rejected")}
    assert 1 <= counts["evaluations"] <= counts["iterations"] + 1
    assert counts["rejected"] <= counts["iterations"]


def test_cli_relax_cell_diagonal(tmp_path, capsys):
    """A (4,4) tube periodic along z relaxes its cell diagonal in z alone;
    a structure without a cell is refused."""
    tube = tmp_path / "tube.xyz"
    write_xyz(make_swcnt(CntSpec(4, 4, 4), axial_period=True), str(tube))
    relaxed = tmp_path / "relaxed.xyz"
    assert cli(["relax", "--input", str(tube), "--output", str(relaxed),
                "--set", "model.vdw=pw", "--set", "relax.cell=diagonal"]) == 0
    assert capsys.readouterr().out.startswith("converged 1 ")
    before, after = read_xyz(str(tube)).cell.matrix, read_xyz(str(relaxed)).cell.matrix
    assert np.array_equal(after[:2], before[:2])
    assert after[2, 2] != before[2, 2]
    chain = tmp_path / "chain.xyz"
    write_xyz(make_chain_pair(ChainSpec(4, 4, gap=6.0)), str(chain))
    assert cli(["relax", "--input", str(chain), "--output", str(tmp_path / "r.xyz"),
                "--set", "relax.cell=diagonal"]) == 1
    assert "relax.cell requires a periodic structure" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    assert cli(["frobnicate"]) == 1
    assert cli([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    # validation error: missing input
    assert cli(["energy"]) == 1
    err = capsys.readouterr().err
    assert "error: kind=" in err
    # a singular cell is a validation error, not a crash in a later inverse
    xyz = tmp_path / "singular.xyz"
    xyz.write_text('2\nLattice="0 0 0 0 0 0 0 0 10" pbc="F F T"\nC 0 0 0\nC 0 0 1.5\n')
    assert cli(["energy", "--input", str(xyz), "--set", "model.vdw=pw"]) == 1
    assert "singular" in capsys.readouterr().err
    # so is a Properties schema without a species column
    xyz = tmp_path / "schema.xyz"
    xyz.write_text("2\nProperties=pos:R:3\n0 0 0\n0 0 1.5\n")
    assert cli(["energy", "--input", str(xyz), "--set", "model.vdw=pw"]) == 1
    assert "kind=ParseError" in capsys.readouterr().err
    # and so is a non-finite coordinate
    for value in ("nan", "inf"):
        xyz = tmp_path / f"{value}.xyz"
        xyz.write_text(f"2\n\nC 0 0 0\nC {value} 0 1.5\n")
        assert cli(["energy", "--input", str(xyz), "--set", "model.vdw=pw"]) == 1
        assert "finite" in capsys.readouterr().err
    # a non-finite setting fails the range check of its config
    s = make_chain_pair(ChainSpec(3, 3, gap=6.0))
    xyz = tmp_path / "pair.xyz"
    write_xyz(s, str(xyz))
    for value in ("nan", "inf"):
        assert cli(["energy", "--input", str(xyz), "--set", "model.vdw=pw",
                    "--set", f"model.pw_d={value}"]) == 1
        assert "damping parameters must be positive" in capsys.readouterr().err
    # a negative seed is refused as the config is resolved, by every
    # command, before a manifest is written
    capped = tmp_path / "capped.xyz"
    write_xyz(make_chain_pair(ChainSpec(4, 4, gap=6.0, hydrogen_caps=True)), str(capped))
    for command in ("generate", "energy", "forces", "relax", "quasistatic", "md",
                    "chain-sweep"):
        out = tmp_path / f"seed-{command}.out"
        assert cli([command, "--input", str(capped), "--output", str(out),
                    "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / f"seed-{command}.out.manifest").exists()
    # a negative iteration budget is an input error, not a failed relaxation
    assert cli(["relax", "--input", str(capped), "--output", str(tmp_path / "r.xyz"),
                "--set", "relax.max_iterations=-1"]) == 1
    assert "max_iterations must be >= 0" in capsys.readouterr().err


def test_cli_manifest_reproduces_run(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(3, 3, gap=6.0))
    xyz = tmp_path / "in.xyz"
    write_xyz(s, str(xyz))
    out = tmp_path / "f.csv"
    rc = cli(["forces", "--input", str(xyz), "--output", str(out),
              "--set", "model.vdw=pw", "--seed", "9"])
    assert rc == 0
    manifest = RunConfig.load(str(out) + ".manifest")
    assert manifest["model.vdw"] == "pw"
    assert manifest["seed"] == 9
    assert manifest["io.input"] == str(xyz)


def test_cli_chain_sweep_small(tmp_path, capsys, monkeypatch):
    import vdwmech.cli as cli_mod

    emitted = []
    emit = cli_mod.emit_chain_sweep

    def recording(rows, path):
        emitted.extend(rows)
        emit(rows, path)

    monkeypatch.setattr(cli_mod, "emit_chain_sweep", recording)
    out = tmp_path / "sweep.csv"
    rc = cli(["chain-sweep", "--output", str(out),
              "--set", "sweep.h_values=8 10",
              "--set", "sweep.nc1_values=4",
              "--set", "sweep.nc2=6"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("h_A,nc1,")
    assert len(lines) == 3
    h, nc1, f_pw, f_mbd, ratio = lines[1].split(",")
    assert int(nc1) == 4
    assert float(ratio) == pytest.approx(abs(float(f_mbd)) / abs(float(f_pw)))
    # each row is the upper-chain y force of the composite vdW-only models
    assert [r["h"] for r in emitted] == [8.0, 10.0]
    for row in emitted:
        spec = ChainSpec(n_upper=4, n_lower=6, gap=row["h"])
        s = make_chain_pair(spec)
        for vdw in ("pw", "mbd"):
            f = CompositeModel(vdw=vdw).energy_and_forces(s)[1]
            ref = f[upper_chain_indices(spec), 1].sum()
            assert row[f"f_{vdw}"] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_cli_chain_sweep_keeps_points_without_a_pairwise_force(tmp_path, capsys):
    # at a 1e80 A gap the pairwise force is exactly 0: that point gets an
    # empty ratio cell, and the other point is kept
    out = tmp_path / "sweep.csv"
    assert cli(["chain-sweep", "--output", str(out), "--set", "sweep.h_values=8 1e80",
                "--set", "sweep.nc1_values=4", "--set", "sweep.nc2=6"]) == 0
    near, far = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(near[2]) < 0 and float(near[4]) > 0
    assert float(far[2]) == 0.0 and far[4] == ""


def test_cli_md_runs(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(4, 4, gap=6.0, hydrogen_caps=True))
    xyz = tmp_path / "in.xyz"
    write_xyz(s, str(xyz))
    out = tmp_path / "md.csv"
    rc = cli(["md", "--input", str(xyz), "--output", str(out),
              "--set", "md.steps=200", "--set", "md.runup=50",
              "--set", "md.sample_interval=10", "--seed", "4"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("atom,species,mean_dx_A")
    assert len(lines) == len(s) + 1


def test_cli_quasistatic_perturbation_takes_the_run_seed(tmp_path, capsys):
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(4, 4, gap=6.0, hydrogen_caps=True)), str(xyz))

    def run(seed, name):
        out = tmp_path / name
        assert cli(["quasistatic", "--input", str(xyz), "--output", str(out),
                    "--set", "protocol.axis=y", "--set", "protocol.steps=1",
                    "--set", "protocol.perturbation=0.01", "--seed", seed]) == 0
        return out.read_bytes()

    first = run("5", "a.csv")
    assert run("5", "b.csv") == first
    assert run("0", "c.csv") != first


def test_cli_quasistatic_names_the_axis_that_matched_no_driven_atoms(tmp_path, capsys):
    # the default chain pair has all its fixed caps at z = 0, and the
    # default protocol.axis is z
    xyz = tmp_path / "chain.xyz"
    assert cli(["generate", "--output", str(xyz)]) == 0
    capsys.readouterr()
    assert cli(["quasistatic", "--input", str(xyz), "--output", str(tmp_path / "q.csv")]) == 1
    err = capsys.readouterr().err
    assert "driven selection 'fixed-max' matched no atoms" in err
    assert "protocol.axis = z" in err and "span 0.0000 .. 0.0000 A" in err
    assert "usage:" not in err


def test_cli_prints_the_usage_only_for_command_line_errors(tmp_path, capsys):
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(3, 3, gap=6.0)), str(xyz))
    for argv in (["energy"], ["energy", "--input", str(xyz), "--set", "model.bogus=1"],
                 ["energy", "--input", str(xyz), "--set", "model.vdw"]):
        assert cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error: kind=InputError" in err and "usage:" in err
    # errors of the run itself: a GeometryError and a ParseError
    overlap = tmp_path / "overlap.xyz"
    overlap.write_text('2\nLattice="2 0 0 0 50 0 0 0 50"\nC 0.02 0 0\nC 1.98 0 0\n')
    bad = tmp_path / "bad.xyz"
    bad.write_text("2\n\nC 0 0 0\n")
    for argv, kind in ((["energy", "--input", str(overlap)], "GeometryError"),
                       (["energy", "--input", str(bad)], "ParseError")):
        assert cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert f"error: kind={kind}" in err and "usage:" not in err


def test_cli_quasistatic_runs(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(4, 4, gap=7.0, hydrogen_caps=True))
    xyz = tmp_path / "in.xyz"
    write_xyz(s, str(xyz))
    out = tmp_path / "qs.csv"
    rc = cli(["quasistatic", "--input", str(xyz), "--output", str(out),
              "--set", "protocol.kind=displacement",
              "--set", "protocol.axis=y",
              "--set", "protocol.driven=fixed-max",
              "--set", "protocol.increment=-0.2",
              "--set", "protocol.steps=2",
              "--set", "relax.force_tolerance=5e-3"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    column = lines[0].split(",").index("evaluations")
    assert all(int(line.split(",")[column]) > 0 for line in lines[1:])


@pytest.mark.parametrize("mode, moved", [("fixed-max", [10, 11]), ("fixed-min", [8, 9]),
                                         ("fixed-all", [8, 9, 10, 11])])
def test_cli_quasistatic_drives_the_selected_caps(tmp_path, capsys, mode, moved):
    """protocol.driven picks the fully fixed atoms above the middle of
    their span along protocol.axis, those below it, or all of them: in the
    final structure of one -0.2 A step along y, only those have moved."""
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(4, 4, hydrogen_caps=True)), str(xyz))
    s = read_xyz(str(xyz))
    fixed = np.flatnonzero(s.fixed.all(axis=1))
    assert fixed.tolist() == [8, 9, 10, 11]
    out = tmp_path / "q.csv"
    assert cli(["quasistatic", "--input", str(xyz), "--output", str(out),
                "--set", "model.vdw=pw", "--set", "protocol.axis=y",
                "--set", f"protocol.driven={mode}", "--set", "protocol.increment=-0.2",
                "--set", "protocol.steps=1"]) == 0
    shift = read_xyz(str(out) + ".final.xyz").positions[fixed] - s.positions[fixed]
    want = np.zeros_like(shift)
    want[np.isin(fixed, moved), 1] = -0.2
    assert np.abs(shift - want).max() <= 1e-9


def test_cli_quasistatic_writes_the_stress_columns(tmp_path, capsys):
    """A bonded-only cell-strain run with compute_stress writes the six
    Voigt stress columns last; sigma_drive_GPa is the strained component
    and stiffness_GPa the slope of sigma_drive_GPa against strain, both as
    written.  A record without a tensor leaves its six cells empty."""
    xyz = tmp_path / "pe.xyz"
    write_xyz(make_pe_crystal(PeCrystalSpec(1, 1, 1)), str(xyz))
    out = tmp_path / "qs.csv"
    assert cli(["quasistatic", "--input", str(xyz), "--output", str(out),
                "--set", "protocol.kind=cell-strain", "--set", "protocol.component=xx",
                "--set", "protocol.increment=0.01", "--set", "protocol.steps=3",
                "--set", "protocol.compute_stress=true"]) == 0
    voigt = [f"sigma_{c}_GPa" for c in ("xx", "yy", "zz", "yz", "xz", "xy")]
    with open(out) as fh:
        header = fh.readline().strip().split(",")
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert header[-6:] == voigt
    assert len(rows) == 3 and all(r["converged"] == "1" for r in rows)
    assert [r["sigma_drive_GPa"] for r in rows] == [r["sigma_xx_GPa"] for r in rows]
    sigma = [float(r["sigma_drive_GPa"]) for r in rows]
    assert sigma == pytest.approx([1.0547, 2.1080, 3.1601], rel=1e-4)
    assert rows[0]["stiffness_GPa"] == ""
    # the cells keep 11 significant digits, so the slope of the written
    # cells matches to their rounding, half a unit in the last place of
    # each, carried through the differences
    for prev, row in zip(rows, rows[1:]):
        (s0, e0), (s1, e1) = ((float(r["sigma_drive_GPa"]), float(r["strain"]))
                              for r in (prev, row))
        slope = (s1 - s0) / (e1 - e0)
        rounding = 5e-11 * ((abs(s0) + abs(s1)) / abs(s1 - s0)
                            + (abs(e0) + abs(e1)) / abs(e1 - e0) + 1)
        assert float(row["stiffness_GPa"]) == pytest.approx(slope, rel=rounding)
    assert [float(r["stiffness_GPa"]) for r in rows[1:]] == pytest.approx([267.5, 267.2],
                                                                          abs=0.05)
    # the Voigt order, (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1), and
    # six empty cells for a record without a tensor
    fields = dict(step=1, applied=0.01, strain=None, e_total=0.0, e_bonded=0.0, e_vdw=0.0,
                  reaction=None, sigma_drive=None, stiffness=None, converged=True,
                  evaluations=1, iterations=0, rejected=0, halvings=0)
    emit_records([StepRecord(sigma=np.arange(9.0).reshape(3, 3), **fields),
                  StepRecord(sigma=None, **fields)], str(out))
    lines = out.read_text().splitlines()
    assert [float(x) for x in lines[1].split(",")[-6:]] == [0, 4, 8, 5, 2, 1]
    assert lines[2].split(",")[-6:] == [""] * 6


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} must not run")
    return refuse


def test_cli_requires_output_before_any_work(tmp_path, capsys, monkeypatch):
    import vdwmech.cli as cli_mod

    for name in ("minimize", "run_quasistatic", "run_md", "make_chain_pair"):
        monkeypatch.setattr(cli_mod, name, _refuse(name))
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(3, 3, gap=6.0)), str(xyz))
    for argv in (["generate"], ["chain-sweep"],
                 ["relax", "--input", str(xyz)],
                 ["quasistatic", "--input", str(xyz)],
                 ["md", "--input", str(xyz), "--set", "model.vdw=pw"]):
        assert cli(argv) == 1, argv
        assert "io.output (or --output) is required" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [xyz]


def test_cli_file_errors_exit_1(tmp_path, capsys, monkeypatch):
    import vdwmech.cli as cli_mod

    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(3, 3, gap=6.0)), str(xyz))
    missing = str(tmp_path / "missing")

    def fails(argv):
        assert cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error: kind=FileNotFoundError" in err and "Traceback" not in err
        assert missing in err

    fails(["energy", "--input", missing])
    fails(["energy", "--input", str(xyz), "--config", missing])
    monkeypatch.setenv("VDWMECH_VDW_PARAMS", missing)
    fails(["energy", "--input", str(xyz), "--set", "model.vdw=pw"])
    monkeypatch.delenv("VDWMECH_VDW_PARAMS")
    # an unwritable output fails at the manifest, before the first MD step
    monkeypatch.setattr(cli_mod, "run_md", _refuse("run_md"))
    fails(["md", "--input", str(xyz), "--output", missing + "/md.csv"])


def test_cli_failed_run_keeps_manifest(tmp_path, capsys):
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(4, 4, gap=6.0)), str(xyz))
    # the manifest is written before the input is read
    out = tmp_path / "md.csv"
    assert cli(["md", "--input", str(tmp_path / "missing.xyz"),
                "--output", str(out)]) == 1
    assert RunConfig.load(str(out) + ".manifest")["io.output"] == str(out)
    assert not out.exists()
    # a relaxation that does not converge writes its state and exits 2
    relaxed = tmp_path / "relaxed.xyz"
    assert cli(["relax", "--input", str(xyz), "--output", str(relaxed),
                "--set", "model.vdw=pw", "--set", "relax.max_iterations=1",
                "--set", "relax.force_tolerance=1e-9"]) == 2
    assert "kind=NumericalError" in capsys.readouterr().err
    assert relaxed.exists() and (tmp_path / "relaxed.xyz.manifest").exists()


def test_cli_resolves_shells_on_the_input(tmp_path, capsys, monkeypatch):
    # a load run fixes the replica shells on the input, not on its
    # perturbed and strained first trial state
    xyz = tmp_path / "pe.xyz"
    write_xyz(make_pe_crystal(PeCrystalSpec(1, 1, 1)), str(xyz))
    seen = []
    resolve = CompositeModel.resolve_shells

    def spy(self, structure):
        seen.append(structure)
        return resolve(self, structure)

    monkeypatch.setattr(CompositeModel, "resolve_shells", spy)
    rc = cli(["quasistatic", "--input", str(xyz), "--output", str(tmp_path / "qs.csv"),
              "--set", "model.vdw=mbd", "--set", "model.mbd_shells=1",
              "--set", "protocol.kind=cell-strain", "--set", "protocol.steps=1",
              "--set", "protocol.increment=0.05", "--set", "protocol.perturbation=0.01",
              "--set", "relax.max_iterations=2"])
    assert rc in (0, 2), capsys.readouterr().err
    pe = read_xyz(str(xyz))
    assert len(seen) == 1
    assert np.array_equal(seen[0].positions, pe.positions)
    assert np.array_equal(seen[0].cell.matrix, pe.cell.matrix)


def test_non_utf8_config_is_a_parse_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"model.vdw = pw  # \xff\n")
    with pytest.raises(ParseError, match="UTF-8") as e:
        RunConfig.load(str(path))
    assert str(path) in str(e.value)


def test_cli_rejects_bad_input_without_traceback(tmp_path, capsys, monkeypatch):
    xyz = tmp_path / "in.xyz"
    write_xyz(make_chain_pair(ChainSpec(3, 3, gap=6.0)), str(xyz))
    # force constants that are not finite and >= 0
    for value in ("nan", "inf", "-5"):
        assert cli(["energy", "--input", str(xyz), "--set", f"model.k_r={value}"]) == 1
        err = capsys.readouterr().err
        assert "error: kind=InputError" in err and "k_r" in err
    # a file that is not UTF-8, in each of the three places a file is read
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    monkeypatch.setenv("VDWMECH_VDW_PARAMS", str(bad))
    for argv in (["energy", "--input", str(bad)],
                 ["energy", "--input", str(xyz), "--config", str(bad)],
                 ["energy", "--input", str(xyz), "--set", "model.vdw=pw"]):
        assert cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error: kind=ParseError" in err and str(bad) in err
