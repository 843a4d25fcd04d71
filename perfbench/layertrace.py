"""Per-layer tracing: wrap the public functions of each qdescent layer.

The wrappers live here, in the benchmark, not in the package.  Each wrapped
function records its call count, its self time (its own span minus the
spans of the wrapped calls made inside it) and, where the layer can repeat
work, the number of distinct argument tuples.  A few functions also record
an extra count taken from their arguments or their result.
"""

from __future__ import annotations

import sys
from time import perf_counter


def freeze(x):
    """A hashable stand-in for an argument: lists and dicts become tuples."""
    if isinstance(x, (list, tuple)):
        return tuple(freeze(y) for y in x)
    if isinstance(x, dict):
        return tuple(sorted((k, freeze(v)) for k, v in x.items()))
    try:
        hash(x)
    except TypeError:
        return ("repr", repr(x))
    return x


class Stat:
    __slots__ = ("calls", "self_s", "keys", "extras")

    def __init__(self, distinct: bool, extras):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set() if distinct else None
        self.extras = dict.fromkeys(extras, 0)


class Tracer:
    """Spans and counters for wrapped functions, kept in memory.

    `stack` holds, for each open span, the time spent so far in the wrapped
    calls it made; a span's self time is its duration minus that.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[float] = []

    def wrap(self, name, fn, distinct=None, pre=None, post=None, extras=()):
        """Return fn wrapped to record under `name`.

        `distinct(args, kwargs)` gives the argument tuple whose distinct
        values are counted.  `pre(args, kwargs)` and `post(result)` return
        {extra: value}; an extra named max_* keeps the maximum, every other
        extra is summed.
        """
        st = self.stats[name] = Stat(distinct is not None, extras)
        stack = self.stack

        def add(vals):
            for k, v in vals.items():
                st.extras[k] = (max(st.extras[k], v) if k.startswith("max_")
                                else st.extras[k] + v)

        def wrapper(*args, **kwargs):
            st.calls += 1
            if distinct is not None:
                st.keys.add(freeze(distinct(args, kwargs)))
            if pre is not None:
                add(pre(args, kwargs))
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if post is not None:
                add(post(result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def snapshot(self) -> dict:
        """{metric name: value} for every wrapped function."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            if st.keys is not None:
                out[f"{name}.distinct_ratio"] = (len(st.keys) / st.calls
                                                 if st.calls else 0.0)
            for k, v in st.extras.items():
                out[f"{name}.{k}"] = v
        return out


def _all_args(args, kwargs):
    return args, kwargs


def _digits(args, kwargs):
    return {"max_digits": len(str(abs(args[0])))}


def _subsets(args, kwargs):
    points, primes = args[1], args[2]
    return {"subsets": 2 ** len(points) * len(primes)}


# layer (the qdescent module defining the functions) -> [(function, options)]
LAYERS = {
    "arith": [("factor_integer", {"pre": _digits, "extras": ["max_digits"]})],
    "poly": [("factor_over_Z", {"distinct": _all_args}),
             ("hensel_lift_factors", {"distinct": _all_args}),
             ("local_splitting_type", {"distinct": _all_args}),
             ("factor_mod_p", {})],
    "tate": [("tate_algorithm", {"distinct": _all_args})],
    "elliptic": [("velu_isogeny", {})],
    "localfields": [
        ("span_closure",
         {"post": lambda r: {"elements": len(r)}, "extras": ["elements"]})],
    "jacobian": [
        ("xt_image", {}),
        ("local_intersection_rank",
         {"post": lambda r: {"incomplete": 0 if r[1] else 1},
          "extras": ["incomplete"]}),
        ("independence_rank", {"pre": _subsets, "extras": ["subsets"]})],
    "descent_local": [("local_descent_report", {}), ("c2_order", {}),
                      ("i2_order", {}), ("torsion_field_profile", {})],
    "descent_global": [("assemble_ledger_elliptic", {}),
                       ("assemble_ledger_hyper", {}), ("bad_primes", {})],
    "tfae": [("tfae_test",
              {"post": lambda r: {"sampled": int(r.certificate != "exact")},
               "extras": ["sampled"]}),
             ("quartic_galois_group", {})],
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every qdescent module that holds it.

    Also wraps EtaleAlgebra construction and mpmath.polyroots, which tfae
    imports lazily and calls through the mpmath module.
    """
    import mpmath

    import qdescent.localfields as localfields

    modules = [m for n, m in list(sys.modules.items())
               if n.startswith("qdescent.") and m is not None]
    for layer, funcs in LAYERS.items():
        for fname, opts in funcs:
            original = getattr(sys.modules[f"qdescent.{layer}"], fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original, **opts)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapped)
    localfields.EtaleAlgebra.__init__ = tracer.wrap(
        "localfields.EtaleAlgebra", localfields.EtaleAlgebra.__init__,
        distinct=lambda args, kwargs: (args[1:], kwargs))
    mpmath.polyroots = tracer.wrap("tfae.polyroots", mpmath.polyroots)


def metric_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in order."""
    t = Tracer()
    for layer, funcs in LAYERS.items():
        for fname, opts in funcs:
            t.wrap(f"{layer}.{fname}", None, **opts)
    t.wrap("localfields.EtaleAlgebra", None, distinct=_all_args)
    t.wrap("tfae.polyroots", None)
    return list(t.snapshot())
