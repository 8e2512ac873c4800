import numpy as np
import pytest

from vdwmech.cli import cli
from vdwmech.config import RunConfig
from vdwmech.errors import InputError
from vdwmech.composite import CompositeModel
from vdwmech.generators import ChainSpec, make_chain_pair, upper_chain_indices
from vdwmech.xyz import read_xyz, write_xyz


def test_config_defaults_and_types():
    cfg = RunConfig()
    assert cfg["model.vdw"] == "none"
    assert cfg["model.mbd_beta"] == 1.0
    cfg.set("model.vdw", "mbd")
    cfg.set("md.steps", "500")
    assert cfg["md.steps"] == 500
    cfg.set("model.pw_cutoff", "none")
    assert cfg["model.pw_cutoff"] is None
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
    s = make_chain_pair(ChainSpec(3, 3, 1.2, 6.0))
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


def test_cli_manifest_reproduces_run(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(3, 3, 1.2, 6.0))
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
        spec = ChainSpec(n_upper=4, n_lower=6, spacing=1.2, gap=row["h"])
        s = make_chain_pair(spec)
        for vdw in ("pw", "mbd"):
            f = CompositeModel(vdw=vdw).energy_and_forces(s)[1]
            ref = f[upper_chain_indices(spec), 1].sum()
            assert row[f"f_{vdw}"] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_cli_md_runs(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(4, 4, 1.2, 6.0, hydrogen_caps=True))
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


def test_cli_quasistatic_runs(tmp_path, capsys):
    s = make_chain_pair(ChainSpec(4, 4, 1.2, 7.0, hydrogen_caps=True))
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
