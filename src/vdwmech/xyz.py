"""Extended-XYZ reader/writer.

Layout: count line; comment line optionally carrying
``Lattice="ax ay az bx by bz cx cy cz"``, a ``Properties=...`` column
schema, and ``pbc="T T F"`` (flags T/True/true/1, F/False/false/0); then
one atom per line.  Without a schema the columns are ``symbol x y z
[volume_ratio] [fx fy fz]``.  Round-trips preserve every structure field.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError, read_text
from .structure import AtomicStructure, CellTensor

_KV_RE = re.compile(r'(\w+)=(?:"([^"]*)"|(\S+))')
# widths of the columns the reader uses; species and pos are required
_WIDTHS = {"species": 1, "pos": 3, "volume_ratio": 1, "fixed": 3}
_PBC_TRUE, _PBC_FALSE = ("T", "True", "true", "1"), ("F", "False", "false", "0")


def _parse_comment(comment: str, path, ln):
    fields = {}
    for m in _KV_RE.finditer(comment):
        fields[m.group(1)] = m.group(2) if m.group(2) is not None else m.group(3)
    cell = None
    if "Lattice" in fields:
        try:
            vals = [float(x) for x in fields["Lattice"].split()]
        except ValueError:
            raise ParseError("malformed Lattice field", path, ln)
        if len(vals) != 9:
            raise ParseError(f"Lattice needs 9 floats, got {len(vals)}", path, ln)
        pbc = (True, True, True)
        if "pbc" in fields:
            flags = fields["pbc"].replace(",", " ").split()
            if len(flags) != 3 or not set(flags) <= {*_PBC_TRUE, *_PBC_FALSE}:
                raise ParseError(f"pbc needs 3 T/F flags, got {fields['pbc']!r}", path, ln)
            pbc = tuple(f in _PBC_TRUE for f in flags)
        cell = CellTensor(np.array(vals).reshape(3, 3), pbc)
    columns = None
    if "Properties" in fields:
        columns = []
        parts = fields["Properties"].split(":")
        if len(parts) % 3:
            raise ParseError("malformed Properties schema", path, ln)
        for k in range(0, len(parts), 3):
            name = parts[k]
            try:
                width = int(parts[k + 2])
            except ValueError:
                raise ParseError("malformed Properties schema", path, ln)
            if width < 1 or width != _WIDTHS.get(name, width):
                raise ParseError(f"Properties column {name!r} has width {width}", path, ln)
            columns.append((name, width))
        for name in ("species", "pos"):
            if name not in dict(columns):
                raise ParseError(f"Properties schema has no {name!r} column", path, ln)
    return cell, columns


def read_xyz(path: str) -> AtomicStructure:
    """Read one extended-XYZ frame."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError("empty file", path, 1)
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"malformed atom count {lines[0]!r}", path, 1)
    if count < 0 or len(lines) < 2 + count:
        raise ParseError(f"expected {count} atom lines", path, 1)
    cell, columns = _parse_comment(lines[1] if len(lines) > 1 else "", path, 2)

    if columns is None:
        columns = [("species", 1), ("pos", 3)]
        if count:
            ncol = len(lines[2].split())
            if ncol == 5:
                columns.append(("volume_ratio", 1))
            elif ncol == 8:
                columns += [("volume_ratio", 1), ("fixed", 3)]
            elif ncol != 4:
                raise ParseError(f"unsupported column count {ncol}", path, 3)

    species, pos, ratios, fixed = [], [], [], []
    for k in range(count):
        ln = 3 + k
        parts = lines[2 + k].split()
        want = sum(w for _, w in columns)
        if len(parts) != want:
            raise ParseError(f"expected {want} columns, got {len(parts)}", path, ln)
        at = 0
        row = {}
        for name, width in columns:
            row[name] = parts[at:at + width]
            at += width
        species.append(row["species"][0])
        try:
            pos.append([float(x) for x in row["pos"]])
            if "volume_ratio" in row:
                ratios.append(float(row["volume_ratio"][0]))
            if "fixed" in row:
                fixed.append([bool(int(x)) for x in row["fixed"]])
        except ValueError:
            raise ParseError(f"malformed atom line {lines[2 + k]!r}", path, ln)

    return AtomicStructure(
        positions=np.array(pos, float).reshape(-1, 3),
        species=species,
        cell=cell,
        volume_ratios=np.array(ratios) if ratios else None,
        fixed=np.array(fixed, bool) if fixed else None)


def write_xyz(structure: AtomicStructure, path: str) -> None:
    """Write one extended-XYZ frame, always including ratio and fix columns."""
    with open(path, "w") as fh:
        fh.write(f"{len(structure)}\n")
        parts = []
        if structure.cell is not None:
            lat = " ".join(f"{x:.12f}" for x in structure.cell.matrix.ravel())
            pbc = " ".join("T" if p else "F" for p in structure.cell.periodic)
            parts.append(f'Lattice="{lat}" pbc="{pbc}"')
        parts.append("Properties=species:S:1:pos:R:3:volume_ratio:R:1:fixed:I:3")
        fh.write(" ".join(parts) + "\n")
        for sym, p, vr, fx in zip(structure.species, structure.positions,
                                  structure.volume_ratios, structure.fixed):
            fh.write(f"{sym} {p[0]:.12f} {p[1]:.12f} {p[2]:.12f} "
                     f"{vr:.12f} {int(fx[0])} {int(fx[1])} {int(fx[2])}\n")
