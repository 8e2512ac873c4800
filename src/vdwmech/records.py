"""CSV emission for forces, step records, MD statistics and chain sweeps.

Formatting is fixed-precision and locale-independent, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

from .errors import InputError
from .md import MdResult
from .quasistatic import StepRecord
from .structure import AtomicStructure

_FMT = "{:.10e}"

_VOIGT = [("sigma_xx_GPa", 0, 0), ("sigma_yy_GPa", 1, 1), ("sigma_zz_GPa", 2, 2),
          ("sigma_yz_GPa", 1, 2), ("sigma_xz_GPa", 0, 2), ("sigma_xy_GPa", 0, 1)]


def _num(x):
    return "" if x is None else _FMT.format(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header and each row (a list of formatted cells)."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(row) + "\n")


def emit_forces(structure: AtomicStructure, forces, path: str) -> None:
    """One row per atom: index, species and the force [eV/A]."""
    _write_csv(path, ["atom", "species", "fx_eV_per_A", "fy_eV_per_A", "fz_eV_per_A"],
               ([str(i), sym] + [_FMT.format(x) for x in f]
                for i, (sym, f) in enumerate(zip(structure.species, forces))))


def emit_records(records: list[StepRecord], path: str) -> None:
    """One CSV row per step; header names every field with units."""
    if not records:
        raise InputError("no records to emit")
    with_tensor = any(r.sigma is not None for r in records)
    header = ["step", "applied_A", "strain", "e_total_eV", "e_bonded_eV",
              "e_vdw_eV", "reaction_eV_per_A", "sigma_drive_GPa",
              "stiffness_GPa", "converged", "evaluations", "iterations", "rejected",
              "halvings"]
    if with_tensor:
        header += [name for name, _, _ in _VOIGT]
    rows = []
    for r in records:
        row = [str(r.step), _FMT.format(r.applied), _num(r.strain),
               _FMT.format(r.e_total), _FMT.format(r.e_bonded),
               _FMT.format(r.e_vdw), _num(r.reaction),
               _num(r.sigma_drive), _num(r.stiffness),
               str(int(r.converged)), str(r.evaluations), str(r.iterations),
               str(r.rejected), str(r.halvings)]
        if with_tensor:
            if r.sigma is None:
                row += [""] * len(_VOIGT)
            else:
                row += [_FMT.format(r.sigma[a, b]) for _, a, b in _VOIGT]
        rows.append(row)
    _write_csv(path, header, rows)


def emit_md_stats(result: MdResult, path: str) -> None:
    """Per-atom time-averaged displacements and their standard deviations."""
    header = ["atom", "species", "mean_dx_A", "mean_dy_A", "mean_dz_A",
              "std_dx_A", "std_dy_A", "std_dz_A"]
    _write_csv(path, header, (
        [str(i), sym] + [_FMT.format(x) for x in (*md, *sd)]
        for i, (sym, md, sd) in enumerate(zip(result.structure.species,
                                              result.mean_displacement,
                                              result.std_displacement))))


def emit_chain_sweep(rows: list[dict], path: str) -> None:
    """CSV for the rigid chain force sweep: one row per (h, nc1) point; the
    ratio cell is empty where the pairwise force is 0."""
    if not rows:
        raise InputError("no sweep rows to emit")
    header = ["h_A", "nc1", "sum_fy_pw_eV_per_A", "sum_fy_mbd_eV_per_A", "ratio_mbd_pw"]
    _write_csv(path, header, (
        [_FMT.format(r["h"]), str(r["nc1"]), _FMT.format(r["f_pw"]),
         _FMT.format(r["f_mbd"]), _num(r["ratio"])] for r in rows))
