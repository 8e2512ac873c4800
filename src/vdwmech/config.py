"""Run configuration: a flat ``key = value`` text format with an explicit
schema.

Unknown keys are rejected before any simulation starts.  A resolved
configuration (defaults filled in) can be written back as a manifest in
the same format; parsing the manifest reproduces the resolved config
exactly.
"""

from __future__ import annotations

from .bonded import K_PHI_DEFAULT, K_R_DEFAULT, K_THETA_DEFAULT
from .composite import VDW_KINDS
from .errors import InputError, ParseError, check_count, read_text
from .mbd import MbdModelConfig as _Mbd
from .md import MdConfig as _Md
from .minimize import MinimizerConfig as _Min
from .pairwise import PwModelConfig as _Pw
from .quasistatic import LoadingProtocol as _Load

_NONE = ("none", "null", "")


def _parse_bool(s):
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_optfloat(s):
    return None if s in _NONE else float(s)


def _parse_floats(s):
    return tuple(float(x) for x in s.replace(",", " ").split())


def _parse_ints(s):
    return tuple(int(x) for x in s.replace(",", " ").split())


_PARSERS = {
    "bool": _parse_bool, "int": int, "float": float, "str": str,
    "optfloat": _parse_optfloat, "floats": _parse_floats, "ints": _parse_ints,
}


def _fmt(kind, value):
    if value is None:
        return "none"
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("floats", "ints"):
        return " ".join(repr(x) for x in value)
    if kind == "float" or kind == "optfloat":
        return repr(float(value))
    return str(value)


# key -> (type, default, allowed-values or None); a key that mirrors a library
# field with a default takes it (generate.* keep the paper's capped geometries)
SCHEMA = {
    "model.bonded": ("bool", True, None),
    "model.vdw": ("str", "none", VDW_KINDS),
    "model.k_r": ("float", K_R_DEFAULT, None),
    "model.k_theta": ("float", K_THETA_DEFAULT, None),
    "model.k_phi": ("float", K_PHI_DEFAULT, None),
    "model.pw_d": ("float", _Pw.d, None),
    "model.pw_gamma": ("float", _Pw.gamma, None),
    "model.mbd_beta": ("float", _Mbd.beta, None),
    "model.mbd_shells": ("int", _Mbd.replica_shells, None),
    "generate.kind": ("str", "chain-pair", ("chain-pair", "swcnt", "pe-crystal")),
    "generate.n_upper": ("int", 28, None),
    "generate.n_lower": ("int", 28, None),
    "generate.gap": ("float", 8.0, None),
    "generate.caps": ("bool", True, None),
    "generate.cnt_n": ("int", 8, None),
    "generate.cnt_m": ("int", 8, None),
    "generate.rings": ("int", 20, None),
    "generate.fixed_end_layers": ("int", 1, None),
    "generate.nx": ("int", 1, None),
    "generate.ny": ("int", 1, None),
    "generate.nz": ("int", 1, None),
    "relax.force_tolerance": ("float", _Min.force_tolerance, None),
    "relax.max_iterations": ("int", _Min.max_iterations, None),
    "relax.cell": ("str", "none", ("none", "diagonal", "all")),
    "protocol.kind": ("str", "displacement", ("displacement", "cell-strain")),
    "protocol.axis": ("str", "z", ("x", "y", "z")),
    "protocol.increment": ("float", 0.1, None),
    "protocol.steps": ("int", 10, None),
    "protocol.driven": ("str", "fixed-max", ("fixed-all", "fixed-max", "fixed-min")),
    "protocol.component": ("str", "xx", ("xx", "yy", "zz", "xy", "xz", "yz")),
    "protocol.cell_mode": ("str", _Load.cell_mode, ("fixed-others", "relaxed-others")),
    "protocol.reference_length": ("optfloat", _Load.reference_length, None),
    "protocol.face_area": ("optfloat", _Load.face_area, None),
    "protocol.compute_stress": ("bool", _Load.compute_stress, None),
    "protocol.perturbation": ("float", _Load.perturbation, None),
    "md.timestep": ("float", 1.0, None),
    "md.temperature": ("float", 300.0, None),
    "md.friction": ("float", _Md.friction, None),
    "md.steps": ("int", 1000, None),
    "md.runup": ("int", _Md.runup_steps, None),
    "md.sample_interval": ("int", _Md.sample_interval, None),
    "sweep.h_values": ("floats", (6.0, 8.0, 10.0, 14.0, 20.0), None),
    "sweep.nc1_values": ("ints", (10, 50, 100, 200), None),
    "sweep.nc2": ("int", 200, None),
    "io.input": ("str", "", None),
    "io.output": ("str", "", None),
    "seed": ("int", 0, None),
}


class RunConfig:
    """Validated flat configuration with schema defaults."""

    def __init__(self, values: dict | None = None):
        self.values = {k: d for k, (_, d, _) in SCHEMA.items()}
        for k, v in (values or {}).items():
            self.set(k, v)

    def set(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise InputError(f"unknown config key {key!r}")
        kind, _, allowed = SCHEMA[key]
        if isinstance(value, str):
            try:
                value = _PARSERS[kind](value.strip())
            except ValueError as e:
                raise InputError(f"bad value for {key}: {e}")
        if allowed is not None and value not in allowed:
            raise InputError(f"{key} must be one of {allowed}, got {value!r}")
        if key == "seed":  # only md and quasistatic pass it to a config that checks it
            check_count(key, value)
        self.values[key] = value

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise InputError(f"unknown config key {key!r}")
        return self.values[key]

    def dump(self, path: str) -> None:
        """Write the fully resolved configuration (the run manifest)."""
        with open(path, "w") as fh:
            fh.write("# vdwmech resolved configuration\n")
            for k in sorted(self.values):
                fh.write(f"{k} = {_fmt(SCHEMA[k][0], self.values[k])}\n")

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        cfg = cls()
        for ln, raw in enumerate(read_text(path).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {raw!r}", path, ln)
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                cfg.set(key, value)
            except InputError as e:
                raise ParseError(str(e), path, ln)
        return cfg
