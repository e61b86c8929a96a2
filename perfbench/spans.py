"""Outside-in tracing of the tritrunc layers.

``Tracer.install`` wraps the public functions (and the public methods of the
public classes) of every ``tritrunc`` module except ``fitting``, which is
under 0.1% of every workload.  Modules import each other with
``from .x import y``, so one function is bound under several module
attributes; every binding is replaced and ``install`` refuses to return
while an original is still reachable from a ``tritrunc`` module.

Each call records one span ``(name, parent, o0, t0, t1, o1, info)`` in
memory.  ``t0..t1`` is the call itself; ``o0..o1`` also covers the tracer's
own bookkeeping around it (argument binding, input hashing).  A parent's
self time subtracts the union of its children's ``o0..o1`` intervals, so the
bookkeeping is charged to no layer: it only shows in
``trace.overhead_share``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np

# Span name per traced function; other public functions and methods of a
# module get the module's name as their span name ("rng", "cli", ...).
SPAN_NAMES = {
    "matrices.singular_values": "matrices.svd",
    "matrices.schatten_quasinorm": "matrices.schatten",
    "matrices.chi_matrix": "matrices.assemble",
    "matrices.delta_matrix": "matrices.assemble",
    "matrices.ones_matrix": "matrices.assemble",
    "matrices.triangular_projection": "matrices.assemble",
    "matrices.block_diag2": "matrices.assemble",
    "matrices.block2x2": "matrices.assemble",
    "trigpoly.lp_quasinorm": "trigpoly.lp",
    "hankel.hankel_matrix": "hankel.assemble",
    "hankel.besov_quasinorm": "hankel.besov",
    "hankel.band_hankel_check": "hankel.band_check",
    "kernels.apply_window": "kernels.window",
    "kernels.lp_piece": "kernels.window",
    "kernels.bump_poly": "kernels.window",
    "multipliers.witness_ratio": "multipliers.witness",
    "multipliers.random_witness_search": "multipliers.search",
    "experiments.run_experiment": "experiments.run",
    "experiments.write_records_csv": "experiments.emit",
    "experiments.fits_json": "experiments.emit",
}
UNTRACED_MODULES = {"fitting", "__main__"}
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 10))

# Per-layer metrics in report order, with unit and the direction that is better.
PER_LAYER = (
    [
        ("matrices.svd.calls", "count", "lower"),
        ("matrices.svd.self_s", "s", "lower"),
        ("matrices.svd.gflop_computed", "GFLOP", "lower"),
        ("matrices.svd.gflops", "GFLOP/s", "higher"),
        ("matrices.svd.repeat_share", "share", "lower"),
        ("matrices.assemble.self_s", "s", "lower"),
        ("trigpoly.lp.calls", "count", "lower"),
        ("trigpoly.lp.self_s", "s", "lower"),
        ("trigpoly.lp.samples", "count", "lower"),
        ("trigpoly.lp.bytes_computed", "B", "lower"),
        ("trigpoly.lp.padding_share", "share", "lower"),
        ("trigpoly.lp.repeat_share", "share", "lower"),
        ("rng.calls", "count", "lower"),
        ("rng.self_s", "s", "lower"),
        ("rng.words", "count", "lower"),
        ("rng.ns_per_word", "ns/word", "lower"),
        ("hankel.assemble.self_s", "s", "lower"),
        ("hankel.besov.self_s", "s", "lower"),
        ("hankel.band_check.self_s", "s", "lower"),
        ("kernels.window.self_s", "s", "lower"),
        ("multipliers.witness.calls", "count", "lower"),
        ("multipliers.witness.self_s", "s", "lower"),
        ("multipliers.search.evals_per_s", "1/s", "higher"),
        ("multipliers.search.improve_share", "share", "higher"),
    ]
    + [(f"experiments.{e}.wall_s", "s", "lower") for e in EXPERIMENT_IDS]
    + [
        ("experiments.self_s", "s", "lower"),
        ("experiments.emit_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_share", "share", "lower"),
    ]
)


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, (bytes, np.ndarray)) else repr(part).encode())
    return h.digest()


def _svd_info(args, originals):
    a = np.ascontiguousarray(args["a"])
    m, n = max(a.shape), min(a.shape)
    return (m, n, bool(np.iscomplexobj(a)), _digest(a, a.shape, a.dtype.str))


def _lp_info(args, originals):
    f, p, n_samples = args["f"], float(args["p"]), args["n_samples"]
    floor = originals["trigpoly.quadrature_floor"]
    samples = int(n_samples) if n_samples is not None else floor(f)
    nz = np.flatnonzero(f.coeffs)
    trimmed = f.coeffs[nz[0] : nz[-1] + 1] if nz.size else f.coeffs[:0]
    # The sample count the quadrature rule needs for the nonzero span alone;
    # calls that agree on it, p and the trimmed coefficients repeat a value.
    useful = floor(type(f)(0, trimmed)) if nz.size else floor(type(f)(0, [0]))
    return (samples, useful, _digest(np.ascontiguousarray(trimmed), p, useful))


def _words_info(args, originals):
    return int(args["count"])


def _experiment_info(args, originals):
    return args["cfg"].experiment


# Input inspection runs before the timed call, outside t0..t1.
PRE_HOOKS = {
    "matrices.singular_values": _svd_info,
    "trigpoly.lp_quasinorm": _lp_info,
    "rng.SplitMix64.uniform": _words_info,
    "rng.SplitMix64.integers": _words_info,
    "experiments.run_experiment": _experiment_info,
}
# Result inspection runs after the timed call, outside t0..t1.
POST_HOOKS = {"multipliers.witness_ratio": lambda out: float(out.ratio)}


class Tracer:
    """In-memory span recorder for one process; spans are kept until ``dump``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.active = False
        self._stack = []
        self.originals = {}

    def wrap(self, key, fn):
        """Return a traced stand-in for ``fn``; ``key`` is ``module.qualname``."""
        name = SPAN_NAMES.get(key, key.split(".", 1)[0])
        pre, post = PRE_HOOKS.get(key), POST_HOOKS.get(key)
        sig = inspect.signature(fn) if pre else None
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            o0 = clock()
            info = None
            if pre:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = pre(bound.arguments, self.originals)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = [name, parent, o0, t0, t1, t1, info]
            if post:
                spans[sid][6] = post(out)
            spans[sid][5] = clock()
            return out

        return traced

    def install(self, package="tritrunc"):
        """Wrap every public function and method of the package's modules."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name not in UNTRACED_MODULES
        ]
        targets = {}  # id(original) -> (key, original)
        owners = []  # module dicts and class dicts that may bind an original
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    owners.append(obj)
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            targets[id(fn)] = (f"{short}.{attr}.{meth}", fn)
        self.originals = {key: fn for key, fn in targets.values()}
        wrappers = {oid: self.wrap(key, fn) for oid, (key, fn) in targets.items()}
        owners += modules
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if id(val) in wrappers:
                    setattr(owner, attr, wrappers[id(val)])
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners
            for attr, val in vars(owner).items()
            if id(val) in targets
        ]
        if left or not targets:
            raise RuntimeError(f"tracing left bindings unwrapped: {left or 'nothing was wrapped'}")
        return len(targets)

    def dump(self, path):
        """Write the spans as JSON lines; input digests become hex strings."""
        fields = ("name", "parent", "o0", "t0", "t1", "o1", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s)), default=bytes.hex) + "\n")


def self_times(spans):
    """Duration t1 - t0 of each span minus the union of its children's o0..o1."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append((s[2], s[5]))
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[3], s[4]
        covered, reach = 0.0, t0
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, t1)
            if b > a:
                covered += b - a
                reach = b
        out.append((t1 - t0) - covered)
    return out


def _share(num, den):
    return num / den if den else 0.0


def _repeat_share(infos):
    seen, repeats = set(), 0
    for digest in infos:
        repeats += digest in seen
        seen.add(digest)
    return _share(repeats, len(infos))


def layer_metrics(spans):
    """Per-layer metrics (without ``trace.overhead_share``) from recorded spans.

    Returns ``(metrics, absent)``: ``absent`` names the metrics whose layer was
    never called, which read 0.
    """
    selfs = self_times(spans)
    self_by = defaultdict(float)
    calls_by = defaultdict(int)
    for s, st in zip(spans, selfs):
        self_by[s[0]] += st
        calls_by[s[0]] += 1

    def in_layer(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    def layer_self(prefix):
        return sum((v for k, v in self_by.items() if in_layer(k, prefix)), 0.0)

    def layer_calls(prefix):
        return sum(v for k, v in calls_by.items() if in_layer(k, prefix))

    svd = [s[6] for s in spans if s[0] == "matrices.svd"]
    flop = sum((4 * m * n * n - 4 * n**3 / 3) * (4 if cplx else 1) for m, n, cplx, _ in svd)
    lp = [s[6] for s in spans if s[0] == "trigpoly.lp"]
    samples = sum(i[0] for i in lp)
    rng_calls = sum(1 for s in spans if s[0] == "rng" and (s[1] < 0 or spans[s[1]][0] != "rng"))
    words = sum(s[6] for s in spans if s[0] == "rng" and s[6] is not None)

    evals = improvements = 0
    search_time = sum(s[4] - s[3] for s in spans if s[0] == "multipliers.search")
    best = {}
    for s in spans:
        if s[0] != "multipliers.witness":
            continue
        anc = s[1]
        while anc >= 0 and spans[anc][0] != "multipliers.search":
            anc = spans[anc][1]
        if anc < 0:
            continue
        evals += 1
        if anc in best and s[6] > best[anc]:
            improvements += 1
        best[anc] = max(best.get(anc, s[6]), s[6])

    wall_by_exp = dict.fromkeys(EXPERIMENT_IDS, 0.0)
    ran = set()
    for s in spans:
        if s[0] == "experiments.run":
            wall_by_exp[s[6]] += s[4] - s[3]
            ran.add(s[6])
    emit = sum((s[4] - s[3] for s in spans if s[0] == "experiments.emit"), 0.0)

    m = {
        "matrices.svd.calls": len(svd),
        "matrices.svd.self_s": self_by["matrices.svd"],
        "matrices.svd.gflop_computed": flop / 1e9,
        "matrices.svd.gflops": _share(flop / 1e9, self_by["matrices.svd"]),
        "matrices.svd.repeat_share": _repeat_share([i[3] for i in svd]),
        "matrices.assemble.self_s": self_by["matrices.assemble"],
        "trigpoly.lp.calls": len(lp),
        "trigpoly.lp.self_s": self_by["trigpoly.lp"],
        "trigpoly.lp.samples": samples,
        "trigpoly.lp.bytes_computed": 16 * samples,
        "trigpoly.lp.padding_share": _share(samples - sum(i[1] for i in lp), samples),
        "trigpoly.lp.repeat_share": _repeat_share([i[2] for i in lp]),
        "rng.calls": rng_calls,
        "rng.self_s": layer_self("rng"),
        "rng.words": words,
        "rng.ns_per_word": _share(layer_self("rng") * 1e9, words),
        "hankel.assemble.self_s": self_by["hankel.assemble"],
        "hankel.besov.self_s": self_by["hankel.besov"],
        "hankel.band_check.self_s": self_by["hankel.band_check"],
        "kernels.window.self_s": self_by["kernels.window"],
        "multipliers.witness.calls": calls_by["multipliers.witness"],
        "multipliers.witness.self_s": self_by["multipliers.witness"],
        "multipliers.search.evals_per_s": _share(evals, search_time),
        "multipliers.search.improve_share": _share(improvements, evals),
    }
    m.update({f"experiments.{e}.wall_s": wall_by_exp[e] for e in EXPERIMENT_IDS})
    m["experiments.self_s"] = layer_self("experiments")
    m["experiments.emit_s"] = emit
    m["cli.self_s"] = layer_self("cli")

    # A metric's layer is its name without the last part.
    called = {layer: layer_calls(layer) > 0 for layer in {name.rsplit(".", 1)[0] for name in m}}
    called.update({f"experiments.{e}": e in ran for e in EXPERIMENT_IDS})
    called["multipliers.search"] = evals > 0
    absent = sorted(name for name in m if not called[name.rsplit(".", 1)[0]])
    return m, absent
