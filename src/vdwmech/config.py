"""Run configuration: a flat ``key = value`` text format with an explicit
schema.

Unknown keys are rejected before any simulation starts.  A resolved
configuration (defaults filled in) can be written back as a manifest in
the same format; parsing the manifest reproduces the resolved config
exactly.
"""

from __future__ import annotations

from .errors import InputError, ParseError

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


# key -> (type, default, allowed-values or None)
SCHEMA = {
    "model.bonded": ("bool", True, None),
    "model.vdw": ("str", "none", ("none", "pw", "mbd")),
    "model.include_dihedrals": ("bool", True, None),
    "model.k_r": ("float", 35.0505, None),
    "model.k_theta": ("float", 6.6069, None),
    "model.k_phi": ("float", 0.5361, None),
    "model.pw_d": ("float", 20.0, None),
    "model.pw_gamma": ("float", 0.94, None),
    "model.pw_cutoff": ("optfloat", None, None),
    "model.mbd_beta": ("float", 1.0, None),
    "model.mbd_shells": ("int", 3, None),
    "model.mbd_shell_tol": ("float", 1e-5, None),
    "generate.kind": ("str", "chain-pair", ("chain-pair", "swcnt", "pe-crystal")),
    "generate.n_upper": ("int", 28, None),
    "generate.n_lower": ("int", 28, None),
    "generate.spacing": ("float", 1.2, None),
    "generate.gap": ("float", 8.0, None),
    "generate.caps": ("bool", True, None),
    "generate.cnt_n": ("int", 8, None),
    "generate.cnt_m": ("int", 8, None),
    "generate.rings": ("int", 20, None),
    "generate.bond_length": ("float", 1.42, None),
    "generate.fixed_end_layers": ("int", 1, None),
    "generate.nx": ("int", 1, None),
    "generate.ny": ("int", 1, None),
    "generate.nz": ("int", 1, None),
    "relax.force_tolerance": ("float", 1e-3, None),
    "relax.max_iterations": ("int", 5000, None),
    "relax.initial_step": ("float", 0.1, None),
    "relax.cell": ("str", "none", ("none", "diagonal", "all")),
    "protocol.kind": ("str", "displacement", ("displacement", "cell-strain")),
    "protocol.axis": ("str", "z", ("x", "y", "z")),
    "protocol.increment": ("float", 0.1, None),
    "protocol.steps": ("int", 10, None),
    "protocol.driven": ("str", "fixed-max", ("fixed-all", "fixed-max", "fixed-min")),
    "protocol.component": ("str", "xx", ("xx", "yy", "zz", "xy", "xz", "yz")),
    "protocol.cell_mode": ("str", "fixed-others", ("fixed-others", "relaxed-others")),
    "protocol.reference_length": ("optfloat", None, None),
    "protocol.face_area": ("optfloat", None, None),
    "protocol.compute_stress": ("bool", False, None),
    "protocol.perturbation": ("float", 0.0, None),
    "protocol.perturbation_seed": ("int", 0, None),
    "protocol.max_increment_halvings": ("int", 4, None),
    "md.timestep": ("float", 1.0, None),
    "md.temperature": ("float", 300.0, None),
    "md.friction": ("float", 0.01, None),
    "md.steps": ("int", 1000, None),
    "md.runup": ("int", 0, None),
    "md.sample_interval": ("int", 1, None),
    "sweep.h_values": ("floats", (6.0, 8.0, 10.0, 14.0, 20.0), None),
    "sweep.nc1_values": ("ints", (10, 50, 100, 200), None),
    "sweep.nc2": ("int", 200, None),
    "sweep.spacing": ("float", 1.2, None),
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
        with open(path) as fh:
            for ln, raw in enumerate(fh, start=1):
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
