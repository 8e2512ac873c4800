"""vdwmech benchmark: one workload per call, single process, closed loop.

    python3 vdwbench/run.py --workload swcnt-mbd --seed 1 --seconds 20 --trace 0

Builds the model from the checkout's ``src/`` (never an installed copy),
sets it up several times, then repeats the workload's solution unit until
``--seconds`` have passed, each unit starting after the previous one has
returned.  Every unit's outputs are checked against ``reference.json``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the library's public calls are wrapped in spans and the
last line carries per-layer self times and counts instead.  Without
``--workload`` all four workloads run one after another.  The exit code is
1 when an operation failed or a check did not hold, 2 when the source
tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Dense eigensolves would otherwise use every core; one BLAS thread keeps
# runs comparable across machines and commits.
BLAS_THREADS = "1"
# set-up is sampled in two windows, before and after the timed phase
SETUP_WINDOWS = ((2, 1.5), (1, 1.5))   # (least repeats, least seconds)
SETUP_MAX_REPEATS = 500
SHARED_CPU_RATIO = 0.9     # process CPU / wall below this: the run was descheduled

END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "ef_eval_s": "s",
    "peak_rss_mb": "MB",
}

# timed-phase metrics are per solution unit, set-up ones per set-up
PER_LAYER = {
    "generators.build_s": "s",
    "bonded.detect_topology_s": "s",
    "bonded.eval_s": "s",
    "bonded.calls": "count",
    "species.states_for_calls": "count",
    "species.states_for_s": "s",
    "pairwise.eval_s": "s",
    "pairwise.calls": "count",
    "mbd.assemble_s": "s",
    "mbd.eigensolve_s": "s",
    "mbd.eigensolves": "count",
    "mbd.trace_forces_s": "s",
    "mbd.energy_self_s": "s",
    "mbd.energy_calls": "count",
    "mbd.ef_calls": "count",
    "periodic.cell_stress_s": "s",
    "periodic.cell_stress_energy_evals": "count",
    "periodic.images": "count",
    "periodic.generate_images_s": "s",
    "composite.resolve_shells_s": "s",
    "composite.shells": "count",
    "composite.shells_at_cap": "count",
    "composite.ef_calls": "count",
    "composite.energy_calls": "count",
    "composite.self_s": "s",
    "minimize.iterations": "count",
    "minimize.evals": "count",
    "minimize.accepted": "count",
    "minimize.accept_ratio": "ratio",
    "minimize.self_s": "s",
    "quasistatic.steps": "count",
    "quasistatic.retries": "count",
    "quasistatic.self_s": "s",
    "md.steps": "count",
    "md.self_s": "s",
    "bench.self_s": "s",
    "trace.time_to_solution_s": "s",
    "trace.unit_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# span name -> self-time metric, in the timed phase and in set-up
SELF_TIME = {
    "bonded.eval": "bonded.eval_s",
    "species.states_for": "species.states_for_s",
    "pairwise.eval": "pairwise.eval_s",
    "mbd.assemble": "mbd.assemble_s",
    "mbd.eigensolve": "mbd.eigensolve_s",
    "mbd.ef": "mbd.trace_forces_s",
    "mbd.energy": "mbd.energy_self_s",
    "periodic.cell_stress": "periodic.cell_stress_s",
    "periodic.generate_images": "periodic.generate_images_s",
    "composite.ef": "composite.self_s",
    "composite.energy": "composite.self_s",
    "composite.resolve_shells": "composite.self_s",
    "minimize": "minimize.self_s",
    "quasistatic": "quasistatic.self_s",
    "md": "md.self_s",
    "bench.unit": "bench.self_s",
}
SETUP_SELF_TIME = {
    "generators.build": "generators.build_s",
    "bonded.detect_topology": "bonded.detect_topology_s",
}

CALLS = {
    "bonded.eval": "bonded.calls",
    "pairwise.eval": "pairwise.calls",
    "mbd.eigensolve": "mbd.eigensolves",
    "mbd.energy": "mbd.energy_calls",
    "mbd.ef": "mbd.ef_calls",
    "composite.ef": "composite.ef_calls",
    "composite.energy": "composite.energy_calls",
}

# per-layer metrics that are not totals per solution unit
NOT_PER_UNIT = {
    "generators.build_s", "bonded.detect_topology_s", "composite.resolve_shells_s",
    "species.states_for_calls", "periodic.images", "periodic.cell_stress_energy_evals",
    "minimize.accept_ratio", "composite.shells", "composite.shells_at_cap",
    "trace.time_to_solution_s", "trace.unit_s", "trace.coverage", "trace.spans",
    "trace.overhead_s",
}


def use_checkout_source() -> None:
    """Import vdwmech from ``<checkout>/src``; raise if it is not there."""
    src = ROOT / "src"
    if not (src / "vdwmech" / "__init__.py").is_file():
        raise FileNotFoundError(f"no vdwmech source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import vdwmech
    if Path(vdwmech.__file__).resolve().parent != src / "vdwmech":
        raise ImportError(f"vdwmech imported from {vdwmech.__file__}, not {src}")


# -- machine line -----------------------------------------------------------

def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return list(os.getloadavg())


def _blas():
    import numpy as np
    info = {"threads_setting": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _source_id():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def machine_line(seed):
    import numpy as np
    import scipy
    commit, digest = _source_id()
    return {"nproc": os.cpu_count(), "loadavg_start": _loadavg(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "git_commit": commit,
            "src_sha1": digest, "seed": seed}


# -- tracing ----------------------------------------------------------------

def install_spans(tracer):
    """Wrap each layer's public functions in the namespace that calls them."""
    import vdwmech as vm
    comp = sys.modules["vdwmech.composite"]
    mbd = sys.modules["vdwmech.mbd"]
    for owner, attr, name, note in (
            (vm, "make_swcnt", "generators.build", None),
            (vm, "make_pe_crystal", "generators.build", None),
            (vm, "make_chain_pair", "generators.build", None),
            (vm, "detect_topology", "bonded.detect_topology", None),
            (vm, "cell_stress", "periodic.cell_stress", None),
            (vm, "run_quasistatic", "quasistatic", lambda r: len(r.records)),
            (vm, "run_md", "md", lambda r: len(r.times)),
            (sys.modules["vdwmech.quasistatic"], "minimize", "minimize",
             lambda r: (r.iterations, len(r.energy_trace) - 1, r.converged)),
            (comp.CompositeModel, "energy_and_forces", "composite.ef", None),
            (comp.CompositeModel, "energy", "composite.energy", None),
            (comp.CompositeModel, "resolve_shells", "composite.resolve_shells", int),
            (comp, "states_for", "species.states_for", None),
            (comp, "generate_images", "periodic.generate_images", len),
            (sys.modules["vdwmech.bonded"], "harmonic_energy", "bonded.eval", None),
            (sys.modules["vdwmech.bonded"], "harmonic_forces", "bonded.eval", None),
            (sys.modules["vdwmech.pairwise"], "pw_energy", "pairwise.eval", None),
            (sys.modules["vdwmech.pairwise"], "pw_forces", "pairwise.eval", None),
            (mbd, "mbd_energy", "mbd.energy", None),
            (mbd, "mbd_energy_and_forces", "mbd.ef", None),
            (mbd, "mbd_forces", "mbd.ef", None),
            (mbd, "assemble_mbd_matrix", "mbd.assemble", None),
            (mbd, "sym_eigen", "mbd.eigensolve", None)):
        # a function a later version drops leaves its metrics at 0 and its
        # time in the caller's self time
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, note)


def layer_metrics(tracer, n_setups, unit_walls, phase_wall, shells_at_cap, span_cost):
    """Per-layer metrics from the spans: set-up ones per set-up, the rest
    per solution unit."""
    spans = tracer.spans
    selfs = tracer.self_times()
    roots = tracer.root_of()
    n_units = len(unit_walls)
    m = dict.fromkeys(PER_LAYER, 0.0)
    timed_self = 0.0
    timed_spans = 0
    cell_stress_calls = 0
    first_unit = next(i for i, s in enumerate(spans) if s[0] == "bench.unit")
    # the set-up whose model the timed phase uses
    last_setup = max(i for i, s in enumerate(spans[:first_unit]) if s[0] == "bench.setup")
    for i, (name, t0, t1, parent, note) in enumerate(spans):
        in_unit = spans[roots[i]][0] == "bench.unit"
        if name == "species.states_for" and (in_unit or roots[i] == last_setup):
            m["species.states_for_calls"] += 1
        if not in_unit:
            if name in SETUP_SELF_TIME:
                m[SETUP_SELF_TIME[name]] += selfs[i]
            elif name == "composite.resolve_shells":
                m["composite.resolve_shells_s"] += t1 - t0
                m["composite.shells"] = note
            continue
        timed_spans += 1
        timed_self += selfs[i]
        m[SELF_TIME[name]] += selfs[i]
        if name in CALLS:
            m[CALLS[name]] += 1
        pname = spans[parent][0] if parent >= 0 else None
        if name in ("composite.ef", "composite.energy"):
            if pname == "minimize":
                m["minimize.evals"] += 1
            elif pname == "periodic.cell_stress":
                m["periodic.cell_stress_energy_evals"] += 1
        elif name == "periodic.cell_stress":
            cell_stress_calls += 1
        elif name == "periodic.generate_images":
            m["periodic.images"] = max(m["periodic.images"], note)
        elif name == "minimize" and note is not None:
            iterations, accepted, converged = note
            m["minimize.iterations"] += iterations
            m["minimize.accepted"] += accepted
            if pname == "quasistatic" and not converged:
                m["quasistatic.retries"] += 1
        elif name in ("quasistatic", "md") and note is not None:
            m[f"{name}.steps"] += note
    evals = m["minimize.evals"]
    m["minimize.accept_ratio"] = m["minimize.accepted"] / evals if evals else 0.0
    if cell_stress_calls:
        m["periodic.cell_stress_energy_evals"] /= cell_stress_calls
    for k in PER_LAYER:
        if k not in NOT_PER_UNIT:
            m[k] /= n_units
    for k in ("generators.build_s", "bonded.detect_topology_s", "composite.resolve_shells_s"):
        m[k] /= n_setups
    m["composite.shells_at_cap"] = shells_at_cap
    m["trace.time_to_solution_s"] = uncontended(unit_walls)
    m["trace.unit_s"] = sum(unit_walls) / n_units
    m["trace.coverage"] = timed_self / phase_wall
    m["trace.spans"] = timed_spans / n_units
    m["trace.overhead_s"] = m["trace.spans"] * span_cost
    return m


# -- one workload -------------------------------------------------------------

def uncontended(samples):
    """The 1st percentile of the samples, or the fastest of fewer than 100.

    On a shared VM other tenants slow this process by up to ~1.8x in
    phases of seconds to tens of seconds, so medians and means of one run
    drift with the share of slow phases it caught.  The fast tail is the
    time the code needs when it has the core, and it repeats from run to
    run as long as a run sees one fast phase.
    """
    return statistics.quantiles(samples, n=100)[0] if len(samples) >= 100 else min(samples)


def _set_up(wl, size, tracer, setups, least_repeats, least_seconds):
    """Set the workload up repeatedly, appending each wall time to ``setups``."""
    t_start = time.perf_counter()
    done = 0
    while done < least_repeats or (time.perf_counter() - t_start < least_seconds
                                   and done < SETUP_MAX_REPEATS):
        idx = tracer.open("bench.setup") if tracer else None
        t0 = time.perf_counter()
        state = wl.setup(size)
        setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(idx)
        done += 1
    return state


def _timed_evals(model, durations):
    """Time every energy+forces call on this model instance."""
    call = model.energy_and_forces

    def timed(structure):
        t0 = time.perf_counter()
        try:
            return call(structure)
        finally:
            durations.append(time.perf_counter() - t0)

    model.energy_and_forces = timed


def measure(name, seed, seconds, trace, size=None, reference=None):
    """Run one workload; returns (result line, report dict)."""
    import numpy as np
    import workloads
    from spans import Tracer, span_cost
    from vdwmech import VdwmechError

    wl = workloads.WORKLOADS[name]
    size = size or workloads.FULL
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())[name]
    tracer = Tracer() if trace else None
    if tracer:
        install_spans(tracer)
    try:
        setups = []
        state = _set_up(wl, size, tracer, setups, *SETUP_WINDOWS[0])

        evals = []
        _timed_evals(state["model"], evals)
        rng = np.random.default_rng(seed)
        walls, problems, outs = [], [], []
        cpu0 = time.process_time()
        t_phase = time.perf_counter()
        while not walls or time.perf_counter() - t_phase < seconds:
            idx = tracer.open("bench.unit") if tracer else None
            t0 = time.perf_counter()
            try:
                out = wl.unit(state, len(walls), rng)
                bad = wl.check(out, reference)
            except VdwmechError as e:
                out, bad = None, [f"{type(e).__name__}: {e}"]
            walls.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(idx)
            outs.append(out)
            if bad:
                problems.append((len(walls) - 1, bad))
        phase_wall = time.perf_counter() - t_phase
        cpu_ratio = (time.process_time() - cpu0) / phase_wall
        _set_up(wl, size, tracer, setups, *SETUP_WINDOWS[1])
    finally:
        if tracer:
            tracer.restore()

    attempted = len(walls)
    if tracer:
        metrics = layer_metrics(tracer, len(setups), walls, phase_wall,
                                state["shells_at_cap"], span_cost())
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": uncontended(setups),
            "time_to_solution_s": uncontended(walls),
            "ef_eval_s": uncontended(evals) if evals else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    done = [o for o in outs if o is not None]

    def median_of(key):
        vals = [o[key] for o in done if key in o]
        return statistics.median(vals) if vals else None

    md_steps = sum(o.get("md_steps", 0) for o in done)
    report = {
        "workload": name, "unit": wl.unit_label, "units": attempted,
        "setups": len(setups), "setup_median_s": statistics.median(setups),
        "unit_median_s": statistics.median(walls), "ef_evals": len(evals),
        "ef_median_s": statistics.median(evals) if evals else None,
        "cpu_ratio": cpu_ratio, "shells": state["shells"],
        "shells_at_cap": state["shells_at_cap"], "problems": problems,
        # figures only some workloads have; None on the others
        "energy_eval_s": median_of("energy_eval_s"),
        "stress_s": median_of("stress_s"),
        "load_step_s": statistics.median(walls) if name == "chain-mbd-load" else None,
        "md_steps_per_s": md_steps / sum(walls) if md_steps else None,
        "failed_frac": len(problems) / attempted,
    }
    return result, report


def _print_report(result, report, machine):
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {report['workload']}: {report['units']} x {report['unit']}, "
          f"shells {report['shells']} (at cap: {bool(report['shells_at_cap'])})")
    print(f"  medians: set-up {report['setup_median_s']:.6g} s (n={report['setups']}), "
          f"unit {report['unit_median_s']:.6g} s (n={report['units']}), "
          f"e+f {report['ef_median_s']:.6g} s (n={report['ef_evals']})")
    for key, unit in (("energy_eval_s", "s"), ("stress_s", "s"), ("load_step_s", "s"),
                      ("md_steps_per_s", "1/s"), ("failed_frac", "ratio")):
        val = report[key]
        print(f"  {key:<22} {'n/a' if val is None else f'{val:.6g}'} {unit}")
    for key, m in result["metrics"].items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    for unit_index, bad in report["problems"]:
        for msg in bad:
            print(f"  FAILED unit {unit_index}: {msg}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="workload name; all of them one after another if omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    try:
        use_checkout_source()
    except (FileNotFoundError, ImportError) as e:
        print(f"vdwbench: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"vdwbench: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
    ok = True
    nproc = os.cpu_count() or 1
    for name in names:
        machine = machine_line(args.seed)
        result, report = measure(name, args.seed, args.seconds, bool(args.trace))
        machine["loadavg_end"] = _loadavg()
        machine["cpu_ratio"] = report["cpu_ratio"]
        machine["shared"] = (report["cpu_ratio"] < SHARED_CPU_RATIO or
                             max(machine["loadavg_start"][0], machine["loadavg_end"][0])
                             > max(nproc - 0.5, 1.5))
        if machine["shared"]:
            print(f"vdwbench: WARNING {name} shared the machine "
                  f"(cpu/wall {report['cpu_ratio']:.2f}, load {machine['loadavg_end'][0]})",
                  file=sys.stderr)
        _print_report(result, report, machine)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
