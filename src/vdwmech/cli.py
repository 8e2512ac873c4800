"""Command-line interface.

Subcommands: generate, energy, forces, relax, quasistatic, md, chain-sweep.
Every run takes one path through ``cli``: it resolves the configuration
(file plus ``--set key=value`` overrides) once, and before any work it
rejects a missing input or output path and writes ``<output>.manifest``.
Only errors up to that point print the usage line.  Exit
codes: 0 on success, 1 on validation and file errors, 2 on
numerical/convergence errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bonded import detect_topology
from .composite import CompositeModel
from .config import RunConfig
from .errors import InputError, NumericalError, VdwmechError
from .generators import (ChainSpec, CntSpec, PeCrystalSpec, cnt_radius,
                         make_chain_pair, make_pe_crystal, make_swcnt,
                         upper_chain_indices)
from .mbd import MbdModelConfig
from .md import MdConfig, run_md
from .minimize import MinimizerConfig, minimize
from .pairwise import PwModelConfig
from .periodic import relaxable_components
from .quasistatic import LoadingProtocol, run_quasistatic
from .records import emit_chain_sweep, emit_forces, emit_md_stats, emit_records
from .structure import AtomicStructure
from .xyz import read_xyz, write_xyz

_AXES = {"x": 0, "y": 1, "z": 2}
_COMPONENTS = {"xx": (0, 0), "yy": (1, 1), "zz": (2, 2),
               "xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg.set(key.strip(), value)
    if args.input:
        cfg.set("io.input", args.input)
    if args.output:
        cfg.set("io.output", args.output)
    if args.seed is not None:
        cfg.set("seed", str(args.seed))
    return cfg


def _pw_config(cfg: RunConfig) -> PwModelConfig:
    return PwModelConfig(d=cfg["model.pw_d"], gamma=cfg["model.pw_gamma"])


def _mbd_config(cfg: RunConfig) -> MbdModelConfig:
    return MbdModelConfig(beta=cfg["model.mbd_beta"],
                          replica_shells=cfg["model.mbd_shells"])


def _minimizer_config(cfg: RunConfig) -> MinimizerConfig:
    return MinimizerConfig(force_tolerance=cfg["relax.force_tolerance"],
                           max_iterations=cfg["relax.max_iterations"])


def build_model(cfg: RunConfig, structure: AtomicStructure) -> CompositeModel:
    """The configured model, with its replica shells resolved on ``structure``."""
    topo = None
    if cfg["model.bonded"]:
        topo = detect_topology(
            structure, k_r=cfg["model.k_r"], k_theta=cfg["model.k_theta"],
            k_phi=cfg["model.k_phi"])
    model = CompositeModel(topology=topo, vdw=cfg["model.vdw"],
                           pw_cfg=_pw_config(cfg), mbd_cfg=_mbd_config(cfg))
    model.resolve_shells(structure)
    return model


def _read_system(cfg: RunConfig) -> tuple[AtomicStructure, CompositeModel]:
    structure = read_xyz(cfg["io.input"])
    return structure, build_model(cfg, structure)


def _driven_indices(structure, cfg) -> tuple[int, ...]:
    fully_fixed = np.where(structure.fixed.all(axis=1))[0]
    if len(fully_fixed) == 0:
        raise InputError("no fully fixed atoms to drive")
    mode = cfg["protocol.driven"]
    if mode == "fixed-all":
        return tuple(fully_fixed)
    axis = _AXES[cfg["protocol.axis"]]
    coords = structure.positions[fully_fixed, axis]
    mid = 0.5 * (coords.min() + coords.max())
    keep = coords > mid if mode == "fixed-max" else coords < mid
    if not keep.any():
        raise InputError(
            f"driven selection {mode!r} matched no atoms: along protocol.axis = "
            f"{cfg['protocol.axis']} the fully fixed atoms span {coords.min():.4f} .. "
            f"{coords.max():.4f} A; set protocol.axis to a direction that separates them")
    return tuple(fully_fixed[keep])


def _cmd_generate(cfg: RunConfig):
    kind = cfg["generate.kind"]
    if kind == "chain-pair":
        spec = ChainSpec(cfg["generate.n_upper"], cfg["generate.n_lower"],
                         gap=cfg["generate.gap"], hydrogen_caps=cfg["generate.caps"])
        structure = make_chain_pair(spec)
    elif kind == "swcnt":
        spec = CntSpec(cfg["generate.cnt_n"], cfg["generate.cnt_m"], cfg["generate.rings"])
        structure = make_swcnt(spec, fixed_end_layers=cfg["generate.fixed_end_layers"])
        print(f"swcnt: {len(structure)} atoms, radius {cnt_radius(spec):.3f} A")
    else:
        spec = PeCrystalSpec(cfg["generate.nx"], cfg["generate.ny"], cfg["generate.nz"])
        structure = make_pe_crystal(spec)
    out = cfg["io.output"]
    write_xyz(structure, out)
    print(f"wrote {len(structure)} atoms to {out}")


def _cmd_energy(cfg: RunConfig):
    structure, model = _read_system(cfg)
    total, bonded, vdw = model.energy_components(structure)
    print(f"e_total_eV {total:.10e}")
    print(f"e_bonded_eV {bonded:.10e}")
    print(f"e_vdw_eV {vdw:.10e}")


def _cmd_forces(cfg: RunConfig):
    structure, model = _read_system(cfg)
    forces = model.energy_and_forces(structure)[1]
    if cfg["io.output"]:
        emit_forces(structure, forces, cfg["io.output"])
    else:
        for i, f in enumerate(forces):
            print(f"{i} {f[0]:.10e} {f[1]:.10e} {f[2]:.10e}")
    print(f"max_force_eV_per_A {np.abs(forces).max(initial=0.0):.10e}")


def _cmd_relax(cfg: RunConfig):
    structure, model = _read_system(cfg)
    relax_cell = ()
    if cfg["relax.cell"] != "none":
        if structure.cell is None:
            raise InputError("relax.cell requires a periodic structure")
        relax_cell = tuple(relaxable_components(
            structure.cell, None, diagonal_only=cfg["relax.cell"] == "diagonal"))
    res = minimize(structure, model, _minimizer_config(cfg), relax_cell=relax_cell)
    write_xyz(res.structure, cfg["io.output"])
    print(f"converged {int(res.converged)} iterations {res.iterations} "
          f"evaluations {res.evaluations} rejected {res.rejected} "
          f"max_force_eV_per_A {res.max_force:.3e} energy_eV {res.energy:.10e}")
    if not res.converged:
        raise NumericalError(
            f"relaxation did not converge in {res.iterations} iterations")


def _cmd_quasistatic(cfg: RunConfig):
    structure, model = _read_system(cfg)
    kind = cfg["protocol.kind"]
    protocol = LoadingProtocol(
        kind=kind, increment=cfg["protocol.increment"],
        step_count=cfg["protocol.steps"], minimizer=_minimizer_config(cfg),
        driven=_driven_indices(structure, cfg) if kind == "displacement" else (),
        axis=_AXES[cfg["protocol.axis"]],
        component=_COMPONENTS[cfg["protocol.component"]],
        cell_mode=cfg["protocol.cell_mode"],
        reference_length=cfg["protocol.reference_length"],
        face_area=cfg["protocol.face_area"],
        compute_stress=cfg["protocol.compute_stress"],
        perturbation=cfg["protocol.perturbation"],
        perturbation_seed=cfg["seed"],
        record_structures=False)
    result = run_quasistatic(structure, model, protocol)
    out = cfg["io.output"]
    emit_records(result.records, out)
    write_xyz(result.final, out + ".final.xyz")
    print(f"steps {len(result.records)} halted {int(result.halted)}")
    if result.halted:
        raise NumericalError("quasistatic run halted on a non-converged step")


def _cmd_md(cfg: RunConfig):
    structure, model = _read_system(cfg)
    mdcfg = MdConfig(timestep=cfg["md.timestep"], temperature=cfg["md.temperature"],
                     total_steps=cfg["md.steps"], friction=cfg["md.friction"],
                     runup_steps=cfg["md.runup"], seed=cfg["seed"],
                     sample_interval=cfg["md.sample_interval"])
    result = run_md(structure, model, mdcfg)
    out = cfg["io.output"]
    emit_md_stats(result, out)
    write_xyz(result.structure, out + ".final.xyz")
    print(f"mean_temperature_K {result.mean_temperature:.3f} "
          f"samples {len(result.times)} seed {result.seed}")


def _cmd_chain_sweep(cfg: RunConfig):
    pw_model = CompositeModel(vdw="pw", pw_cfg=_pw_config(cfg))
    mbd_model = CompositeModel(vdw="mbd", mbd_cfg=_mbd_config(cfg))
    rows = []
    for nc1 in cfg["sweep.nc1_values"]:
        for h in cfg["sweep.h_values"]:
            spec = ChainSpec(n_upper=int(nc1), n_lower=cfg["sweep.nc2"], gap=h)
            structure = make_chain_pair(spec)
            upper = upper_chain_indices(spec)
            f_pw, f_mbd = (float(m.energy_and_forces(structure)[1][upper, 1].sum())
                           for m in (pw_model, mbd_model))
            rows.append({"h": h, "nc1": int(nc1), "f_pw": f_pw, "f_mbd": f_mbd,
                         "ratio": abs(f_mbd) / abs(f_pw) if f_pw else None})
    out = cfg["io.output"]
    emit_chain_sweep(rows, out)
    print(f"wrote {len(rows)} sweep points to {out}")


_COMMANDS = {
    "generate": _cmd_generate,
    "energy": _cmd_energy,
    "forces": _cmd_forces,
    "relax": _cmd_relax,
    "quasistatic": _cmd_quasistatic,
    "md": _cmd_md,
    "chain-sweep": _cmd_chain_sweep,
}
_READS_INPUT = ("energy", "forces", "relax", "quasistatic", "md")
_WRITES_OUTPUT = ("generate", "relax", "quasistatic", "md", "chain-sweep")


def _build_parser() -> _Parser:
    parser = _Parser(prog="vdwmech",
                     description="Molecular mechanics with pairwise and "
                                 "many-body dispersion")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--input", help="input structure (extended XYZ)")
        p.add_argument("--output", help="output path")
        p.add_argument("--seed", type=int, help="random seed")
    return parser


def cli(argv=None) -> int:
    """Run one subcommand: resolve the config, require ``io.input`` and
    ``io.output`` where the command reads and writes files, write the
    manifest, then run the command.  The usage line follows only the input
    errors raised up to the manifest, not those of the run."""
    parser = _build_parser()
    resolving = True
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise InputError("missing subcommand")
        cfg = _resolve_config(args)
        if args.command in _READS_INPUT and not cfg["io.input"]:
            raise InputError("io.input (or --input) is required")
        out = cfg["io.output"]
        if args.command in _WRITES_OUTPUT and not out:
            raise InputError("io.output (or --output) is required")
        resolving = False
        if out:
            cfg.dump(out + ".manifest")
        _COMMANDS[args.command](cfg)
        return 0
    except (VdwmechError, OSError) as e:
        print(f'error: kind={type(e).__name__} message="{e}"', file=sys.stderr)
        if resolving and isinstance(e, InputError):
            print(parser.format_usage(), file=sys.stderr, end="")
        return 2 if isinstance(e, NumericalError) else 1


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
