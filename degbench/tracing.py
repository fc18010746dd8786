"""Spans around the package's public functions, recorded from outside it.

:class:`Tracer` replaces each public function below with a wrapper that
records a span (name, start, end, parent span, instance id).  A name that a
module bound with ``from .x import y`` is the same function object under
another module's name, so every module attribute that *is* the original gets
the wrapper; otherwise calls such as ``solver.solve_R`` would go uncounted.
:meth:`Tracer.uninstall` puts every original back and checks that no wrapper
is left, so untraced runs execute the unpatched code.

Spans stay in memory; :func:`derive` turns one pass's spans into the
per-layer metrics, with self time = span duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("solver", "ncrank", "laurent", "field_linalg", "oracles", "rational",
          "partitioned", "instances")

FUNCTIONS = {
    "solver": ("solve", "solve_with_final_pencil", "run_phase"),
    "ncrank": ("solve_R", "is_nc_nonsingular", "substituted_blowup", "build_blowup"),
    "laurent": ("step_update", "truncate", "square_substitute", "scale_tinv", "leading"),
    "field_linalg": ("mod_matmul", "mod_rref", "mod_rank", "mod_nullspace",
                     "mod_column_space", "mod_inverse_matrix", "batch_pow", "rref",
                     "nullspace", "column_space", "preimage", "span_union"),
    "oracles": ("degdet_blowup", "degdet_commutative", "hungarian", "newton_small",
                "batch_det"),
    "rational": ("solve_rational_report", "solve_rational", "prime_budget"),
    "partitioned": ("solve_and_extract", "enumerate_perfect", "is_consistent",
                    "to_instance"),
    "instances": ("save", "load"),
}

METHODS = {
    "ncrank": (("ConstPencil", "substitute"), ("Certificate", "check")),
    "laurent": (("LaurentMatrix", "square_substitute"), ("LaurentMatrix", "scale_tinv")),
    "instances": (("IntegerInstance", "reduce_mod"),),
}

RESCALE = frozenset({"laurent.square_substitute", "laurent.scale_tinv",
                     "laurent.LaurentMatrix.square_substitute",
                     "laurent.LaurentMatrix.scale_tinv"})


def _matmul_macs(args, result) -> int:
    """Multiply-accumulates of a @ b, from the operand shapes."""
    a, b = np.shape(args[0]), np.shape(args[1])
    a = a if len(a) >= 2 else (1,) + a
    b = b if len(b) >= 2 else b + (1,)
    batch = int(np.prod(np.broadcast_shapes(a[:-2], b[:-2]), dtype=np.int64))
    return batch * a[-2] * a[-1] * b[-1]


def _rref_cells(args, result) -> int:
    rows, cols = np.shape(args[0])
    return rows * cols


def _oracle_progress(args, result) -> bool:
    return result.value < args[0].n


def _pencil_shape(args, result) -> tuple[int, float]:
    """Stored coefficients and deepest degree over 2 n^2 m of an updated pencil."""
    deepest = max(-term.depth for term in result.terms)
    return (sum(len(term.coeffs) for term in result.terms),
            deepest / (2 * result.n * result.n * result.m))


def _solve_report(args, result) -> tuple[int, int, float]:
    report, inst = result[0], args[0]
    bound = inst.n * inst.n * inst.m + 1
    return (report.oracle_calls, report.phases,
            max(report.iterations, default=0) / bound)


def _rational_report(args, result) -> tuple[int, int, int]:
    outcomes = result.outcomes
    useful = sum(1 for o in outcomes if not o.skipped and o.value == result.value)
    return len(outcomes), sum(1 for o in outcomes if o.skipped), useful


HOOKS = {
    "field_linalg.mod_matmul": _matmul_macs,
    "field_linalg.mod_rref": _rref_cells,
    "ncrank.solve_R": _oracle_progress,
    "laurent.step_update": _pencil_shape,
    "solver.solve_with_final_pencil": _solve_report,
    "rational.solve_rational_report": _rational_report,
}


class Tracer:
    """Patches the package's public functions and records their spans."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, instance id)
        self.extra: dict = {}   # span index -> hook value
        self.instance = None
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, extra, hook = self.spans, self._stack, self.extra, HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.instance)
            if hook is not None:
                extra[idx] = hook(args, result)
            return result

        traced.degbench_traced = True
        return traced

    def install(self, dd) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "degdet" or key.startswith("degdet.")]
        for layer, names in FUNCTIONS.items():
            owner = getattr(dd, layer)
            for attr in names:
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for layer, pairs in METHODS.items():
            for cls_name, attr in pairs:
                cls = getattr(getattr(dd, layer), cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        for key, mod in list(sys.modules.items()):
            if key == "degdet" or key.startswith("degdet."):
                for value in vars(mod).values():
                    left = [value] + ([v for v in vars(value).values()]
                                      if isinstance(value, type) else [])
                    if any(getattr(v, "degbench_traced", False) for v in left):
                        raise RuntimeError(f"a traced wrapper survived in {key}")

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, instance."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\tinstance\n")
            for idx, (name, t0, t1, parent, inst) in enumerate(self.spans):
                out.write(f"{idx}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{inst}\n")


def derive(spans, extra) -> tuple[dict, dict]:
    """Per-layer metrics and per-instance counts of one pass's spans."""
    count: Counter = Counter()
    total: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    child = [0.0] * len(spans)
    solver_child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
            if name.startswith("solver."):
                solver_child[parent] += t1 - t0
    rescale = 0.0
    extract = 0.0
    fallback_calls, fallback_s, enum_fallbacks = 0, 0.0, 0
    per_prime: list[float] = []
    per_instance: dict = defaultdict(Counter)
    for idx, (name, t0, t1, parent, inst) in enumerate(spans):
        dur = t1 - t0
        count[name] += 1
        total[name] += dur
        layer_self[name.split(".", 1)[0]] += dur - child[idx]
        pname = spans[parent][0] if parent >= 0 else ""
        if name in RESCALE and pname not in RESCALE:
            rescale += dur
        if name == "partitioned.solve_and_extract":
            extract += dur - solver_child[idx]
        if name == "oracles.degdet_blowup" and pname.startswith("solver."):
            fallback_calls += 1
            fallback_s += dur
        if name == "partitioned.enumerate_perfect" and pname == "partitioned.solve_and_extract":
            enum_fallbacks += 1
        if name == "solver.solve" and pname == "rational.solve_rational_report":
            per_prime.append(dur)
        if name == "ncrank.ConstPencil.substitute":
            per_instance[inst]["samples"] += 1

    def hooked(name):
        return [(idx, extra[idx]) for idx in extra if spans[idx][0] == name]

    solves = hooked("solver.solve_with_final_pencil")
    for idx, (calls, phases, _) in solves:
        per_instance[spans[idx][4]]["oracle_calls"] += calls
        per_instance[spans[idx][4]]["phases"] += phases
        per_instance[spans[idx][4]]["solves"] += 1
    oracle = [v for _, v in hooked("ncrank.solve_R")]
    pencils = [v for _, v in hooked("laurent.step_update")]
    rational = [v for _, v in hooked("rational.solve_rational_report")]
    primes = sum(v[0] for v in rational)
    m = {
        "solver.oracle_calls": sum(v[0] for _, v in solves),
        "solver.phases": sum(v[1] for _, v in solves),
        "solver.iter_bound_ratio": max((v[2] for _, v in solves), default=0.0),
        "ncrank.solve_R.calls": count["ncrank.solve_R"],
        "ncrank.solve_R_s": total["ncrank.solve_R"],
        "ncrank.samples": count["ncrank.ConstPencil.substitute"],
        "ncrank.substitute_s": total["ncrank.ConstPencil.substitute"],
        "ncrank.cert_check_s": total["ncrank.Certificate.check"],
        "ncrank.progress_share": sum(oracle) / len(oracle) if oracle else 0.0,
        "ncrank.nc_test.calls": count["ncrank.is_nc_nonsingular"],
        "ncrank.nc_test_s": total["ncrank.is_nc_nonsingular"],
        "ncrank.blowup_eval_s": total["ncrank.substituted_blowup"],
        "laurent.step_update.calls": count["laurent.step_update"],
        "laurent.step_update_s": total["laurent.step_update"],
        "laurent.truncate_s": total["laurent.truncate"],
        "laurent.rescale_s": rescale,
        "laurent.stored_coeffs.max": max((v[0] for v in pencils), default=0),
        "laurent.depth_ratio.max": max((v[1] for v in pencils), default=0.0),
        "field_linalg.mod_matmul.calls": count["field_linalg.mod_matmul"],
        "field_linalg.mod_matmul_s": total["field_linalg.mod_matmul"],
        "field_linalg.mod_matmul.gmac": sum(
            v for _, v in hooked("field_linalg.mod_matmul")) / 1e9,
        "field_linalg.mod_rref.calls": count["field_linalg.mod_rref"],
        "field_linalg.mod_rref_s": total["field_linalg.mod_rref"],
        "field_linalg.mod_rref.cells": sum(v for _, v in hooked("field_linalg.mod_rref")),
        "oracles.fallback.calls": fallback_calls,
        "oracles.fallback_s": fallback_s,
        "rational.primes": primes,
        "rational.skipped": sum(v[1] for v in rational),
        "rational.useful_prime_share": sum(v[2] for v in rational) / primes if primes else 0.0,
        "rational.per_prime_s.p50": statistics.median(per_prime) if per_prime else 0.0,
        "partitioned.extract_s": extract,
        "partitioned.enumeration_fallbacks": enum_fallbacks,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m, {key: dict(val) for key, val in per_instance.items()}
