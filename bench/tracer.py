"""Call tracer that times lyapcert from outside, without touching `src/`.

Every public function of every lyapcert module is wrapped, and the wrapper is
installed wherever the function is bound: in the defining module and in every
module that imported it by name (`lyapunov.solve_lyapunov`,
`analysis.integrate`, `cli.write_csv`, ...).  Calls that look a function up at
call time (`sim.integrate` importing `eval_V`) find the wrapper too.  A few
methods are wrapped on their class.

Calls made per step or per quadrature node (HOT) are kept as a count and a
summed time under their parent span; every other call is a span (id, parent
id, name, start, end) held in memory and written out when the run ends.  A
function's self time is its span time minus the time of its wrapped children;
the benchmark's own time is the root's self time, so the self times of one
round add up to its wall time.
"""

import inspect
import itertools
import time

MODULES = ("linalg", "damping", "models", "lyapunov", "sim", "analysis",
           "config", "cli", "io")
METHODS = (("damping", "DampingSpec", ("apply", "h_eval", "k_integral")),
           ("linalg", "InnerProduct", ("norm", "inner")))
HOT = frozenset({
    "damping.DampingSpec.apply", "damping.DampingSpec.h_eval",
    "damping.DampingSpec.k_integral", "linalg.InnerProduct.norm",
    "linalg.InnerProduct.inner", "lyapunov.eval_V", "linalg.matrix_exponential",
})
# io.format_value runs once per CSV cell; it stays unwrapped so that the cost
# of formatting rows remains in io.write_csv's self time.
UNWRAPPED = frozenset({"io.format_value"})

# Per-layer metric groups: name -> the wrapped functions whose calls and self
# times add up to the group's.
GROUPS = {
    "sim.integrate": ["sim.integrate"],
    "damping.DampingSpec.apply": ["damping.DampingSpec.apply"],
    "linalg.InnerProduct.norm": ["linalg.InnerProduct.norm"],
    "lyapunov.eval_V": ["lyapunov.eval_V"],
    "linalg.operator_norm": ["linalg.operator_norm", "linalg.operator_norm_nonsym"],
    "linalg.gramian_quadrature": ["linalg.gramian_quadrature"],
    "linalg.matrix_exponential": ["linalg.matrix_exponential"],
    "lyapunov.calibrate_C_theta": ["lyapunov.calibrate_C_theta"],
    "analysis.verify_poly_chain": ["analysis.verify_poly_chain"],
    "linalg.solve_lyapunov": ["linalg.solve_lyapunov"],
    "linalg.dissipativity_margin": ["linalg.dissipativity_margin"],
    "models.build": ["models.make_finite_dim", "models.discretize_kdv",
                     "models.discretize_wave"],
    "models.estimate_cS": ["models.estimate_cS"],
    "models.leading_eigvec": ["models.leading_eigvec"],
    "lyapunov.build_certificate": ["lyapunov.build_exp_certificate",
                                   "lyapunov.build_semiglobal_certificate",
                                   "lyapunov.build_poly_certificate"],
    "analysis.sweep_semiglobal": ["analysis.sweep_semiglobal"],
    "analysis.fit": ["analysis.fit_exponential", "analysis.fit_polynomial",
                     "analysis.fit_linear_phase"],
    "analysis.verify_lyapunov_decrease": ["analysis.verify_lyapunov_decrease"],
    "analysis.behavior_profile": ["analysis.behavior_profile"],
    "io.write_csv": ["io.write_csv"],
    "io.read_csv": ["io.read_csv"],
    "config.parse_config": ["config.parse_config"],
    "cli.main": "cli.*",        # the CLI's own work: every function of the cli module
}
COUNTED = {"cli.main": ["cli.main"]}  # calls counted where they differ from the members

MiB = 1024.0 * 1024.0


class Tracer:
    def __init__(self, package):
        self.stats = {}            # name -> [calls, total_s, self_s]
        self.hot = {}              # (parent name, name) -> [calls, total_s]
        self.spans = []            # (id, parent id, name, start, end)
        self.stack = []            # open frames: [name, child_s, id]
        self.extra = {"sim.steps": 0, "sim.recorded_bytes": 0}
        self.csv_paths = []
        self._ids = itertools.count(1)
        originals = {}             # id(function) -> (function, wrapper)
        mods = [package] + [getattr(package, m) for m in MODULES]
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNWRAPPED):
                    originals[id(val)] = (val, self._wrap(f"{short}.{attr}", val))
        self.targets = []          # (owner, attribute, original, wrapper)
        for mod in mods:
            for attr, val in vars(mod).items():
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self.targets.append((mod, attr, val, hit[1]))
        for modname, clsname, names in METHODS:
            cls = getattr(getattr(package, modname), clsname)
            for attr in names:
                fn = vars(cls)[attr]
                wrapper = self._wrap(f"{modname}.{clsname}.{attr}", fn)
                self.targets.append((cls, attr, fn, wrapper))

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, hot, ids, extra = self.stack, self.spans, self.hot, self._ids, self.extra
        clock = time.perf_counter
        is_hot = name in HOT
        is_integrate = name == "sim.integrate"
        is_write_csv = name == "io.write_csv"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2] if is_hot else next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                parent[1] += dur
                if is_hot:
                    agg = hot.get((parent[0], name))
                    if agg is None:
                        hot[(parent[0], name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    spans.append((frame[2], parent[2], name, t0, t1))
            if is_integrate:
                extra["sim.steps"] += len(out.times) - 1
                extra["sim.recorded_bytes"] += sum(
                    a.nbytes for a in (out.times, out.states, out.norm_H, out.norm_DA,
                                       out.damping_power, out.V_values) if a is not None)
            elif is_write_csv:
                self.csv_paths.append(args[0])
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --- one traced round -------------------------------------------------

    def begin(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        self.hot.clear()
        self.spans.clear()
        self.csv_paths.clear()
        self.extra.update({"sim.steps": 0, "sim.recorded_bytes": 0})
        self.stack[:] = [["bench", 0.0, 0]]
        for owner, attr, _, wrapper in self.targets:
            setattr(owner, attr, wrapper)

    def end(self, wall):
        """Uninstall the wrappers and summarize the round timed as `wall`."""
        for owner, attr, original, _ in self.targets:
            setattr(owner, attr, original)
        root = self.stack[0]
        return {
            "wall_s": wall,
            "bench_self_s": wall - root[1],
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "hot": [[p, n, c, t] for (p, n), (c, t) in sorted(self.hot.items())],
            "spans": list(self.spans),
            "steps": self.extra["sim.steps"],
            "recorded_bytes": self.extra["sim.recorded_bytes"],
            "csv_paths": list(self.csv_paths),
        }


def group_members(spec, names):
    if spec == "cli.*":
        return [n for n in names if n.startswith("cli.")]
    return spec


def layer_metrics(rec):
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    stats = rec["stats"]
    names = sorted(stats)
    out = {}
    grouped = set()
    for group, members in GROUPS.items():
        members = group_members(members, names)
        grouped.update(members)
        counted = COUNTED.get(group, members)
        out[f"{group}.calls"] = (sum(stats.get(m, [0])[0] for m in counted), "count")
        out[f"{group}.self_s"] = (sum(stats.get(m, [0, 0, 0.0])[2] for m in members), "s")
    steps = rec["steps"]
    total_integrate = stats.get("sim.integrate", [0, 0.0])[1]
    out["sim.integrate.us_per_step"] = (1e6 * total_integrate / steps if steps else 0.0, "us")
    out["sim.steps"] = (steps, "count")
    out["sim.recorded_mb"] = (rec["recorded_bytes"] / MiB, "MiB")
    out["io.write_csv.mb"] = (rec["csv_bytes"] / MiB, "MiB")
    out["trace.wall_s"] = (rec["wall_s"], "s")
    out["trace.bench_self_s"] = (rec["bench_self_s"], "s")
    out["trace.other_self_s"] = (sum(v[2] for k, v in stats.items() if k not in grouped), "s")
    return out
