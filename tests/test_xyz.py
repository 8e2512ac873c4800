import numpy as np
import pytest

from vdwmech.errors import InputError, ParseError
from vdwmech.structure import AtomicStructure, CellTensor
from vdwmech.xyz import read_xyz, write_xyz


def test_round_trip_simple(tmp_path):
    s = AtomicStructure(positions=[[0, 0, 0], [1.234567890123, 0.5, -2.0]],
                        species=["C", "H"])
    path = tmp_path / "two.xyz"
    write_xyz(s, str(path))
    back = read_xyz(str(path))
    assert back.species == s.species
    assert np.abs(back.positions - s.positions).max() < 1e-10
    assert back.cell is None


def test_round_trip_full_fields(tmp_path):
    cell = CellTensor(np.array([[10.0, 0, 0], [0.5, 9.0, 0], [0, 0, 8.0]]),
                      periodic=(True, True, False))
    s = AtomicStructure(positions=[[0, 0, 0], [2.0, 2.0, 2.0]],
                        species=["C", "H"], cell=cell,
                        volume_ratios=[0.87, 1.12],
                        fixed=[[True, False, True], [False, False, False]])
    path = tmp_path / "full.xyz"
    write_xyz(s, str(path))
    back = read_xyz(str(path))
    assert np.abs(back.positions - s.positions).max() < 1e-10
    assert np.abs(back.cell.matrix - cell.matrix).max() < 1e-10
    assert back.cell.periodic == (True, True, False)
    assert np.allclose(back.volume_ratios, s.volume_ratios)
    assert np.array_equal(back.fixed, s.fixed)


def test_lattice_field_populates_cell(tmp_path):
    path = tmp_path / "lat.xyz"
    path.write_text('1\nLattice="5 0 0 0 6 0 0 0 7"\nC 1.0 2.0 3.0\n')
    s = read_xyz(str(path))
    assert s.cell is not None
    assert s.cell.periodic == (True, True, True)
    assert np.allclose(np.diag(s.cell.matrix), [5, 6, 7])


def test_singular_lattice_rejected(tmp_path):
    # non-periodic rows count too: every inverse of the cell matrix needs them
    path = tmp_path / "flat.xyz"
    for lattice, pbc in (("0 0 0 0 0 0 0 0 10", "F F T"), ("5 0 0 10 0 0 0 0 7", "T T T"),
                         ("5 0 0 0 6 0 0 0 0", "T T F")):
        path.write_text(f'1\nLattice="{lattice}" pbc="{pbc}"\nC 1.0 2.0 3.0\n')
        with pytest.raises(InputError, match="singular"):
            read_xyz(str(path))


def test_pbc_flags_checked(tmp_path):
    # each flag is one of T/True/true/1 or F/False/false/0; any other word
    # is an error on line 2, not a silent False
    path = tmp_path / "pbc.xyz"
    for pbc, want in (("1 false True", (True, False, True)), ("F,0,t", None),
                      ("T T yes", None), ("T T", None)):
        path.write_text(f'1\nLattice="5 0 0 0 6 0 0 0 7" pbc="{pbc}"\nC 1.0 2.0 3.0\n')
        if want is None:
            with pytest.raises(ParseError, match="pbc") as e:
                read_xyz(str(path))
            assert ":2:" in str(e.value)
        else:
            assert read_xyz(str(path)).cell.periodic == want


def test_malformed_properties_schema_rejected(tmp_path):
    # a missing species or pos column, or a known column of the wrong width
    path = tmp_path / "schema.xyz"
    for schema, line, what in (
            ("pos:R:3", "0 0 0", "species"),
            ("species:S:1", "C", "pos"),
            ("species:S:1:pos:R:2", "C 0 0", "pos"),
            ("species:S:2:pos:R:3", "C C 0 0 0", "species"),
            ("species:S:1:pos:R:3:volume_ratio:R:2", "C 0 0 0 1 1", "volume_ratio"),
            ("species:S:1:pos:R:3:fixed:I:2", "C 0 0 0 1 0", "fixed"),
            ("species:S:1:pos:R:3:charge:R:0", "C 0 0 0", "charge")):
        path.write_text(f"1\nProperties={schema}\n{line}\n")
        with pytest.raises(ParseError, match=f"'{what}'") as e:
            read_xyz(str(path))
        assert ":2:" in str(e.value)
    # columns the reader does not use are skipped
    path.write_text("1\nProperties=species:S:1:charge:R:2:pos:R:3\nC 7 8 1 2 3\n")
    assert read_xyz(str(path)).positions.tolist() == [[1.0, 2.0, 3.0]]


def test_missing_volume_ratio_defaults(tmp_path):
    path = tmp_path / "plain.xyz"
    path.write_text("2\ncomment\nC 0 0 0\nC 2 0 0\n")
    s = read_xyz(str(path))
    assert np.all(s.volume_ratios == 1.0)
    assert not s.fixed.any()


def test_optional_columns_without_schema(tmp_path):
    path = tmp_path / "cols.xyz"
    path.write_text("1\n\nC 0 0 0 0.9\n")
    s = read_xyz(str(path))
    assert s.volume_ratios[0] == pytest.approx(0.9)
    path.write_text("1\n\nC 0 0 0 0.9 1 0 1\n")
    s = read_xyz(str(path))
    assert list(s.fixed[0]) == [True, False, True]


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("x\n")
    with pytest.raises(ParseError) as e:
        read_xyz(str(path))
    assert ":1:" in str(e.value)

    path.write_text("2\ncomment\nC 0 0 0\n")
    with pytest.raises(ParseError):
        read_xyz(str(path))

    path.write_text("1\ncomment\nC 0 0 zz\n")
    with pytest.raises(ParseError) as e:
        read_xyz(str(path))
    assert ":3:" in str(e.value)

    path.write_text("1\ncomment\nXx 0 0 0\n")
    with pytest.raises(Exception):
        read_xyz(str(path))

    path.write_text('1\nLattice="1 2 3"\nC 0 0 0\n')
    with pytest.raises(ParseError):
        read_xyz(str(path))


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.xyz"
    path.write_bytes(b"1\ncomment \xff\nC 0 0 0\n")
    with pytest.raises(ParseError, match="UTF-8") as e:
        read_xyz(str(path))
    assert str(path) in str(e.value)
