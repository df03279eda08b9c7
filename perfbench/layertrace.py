"""Outside-in layer tracer for the benchmark: wraps the public functions of
each package layer, from outside the package, and records a span per call.

Only traced passes import this module.  `install()` replaces every binding
of a wrapped function in the loaded `hecke_bz` modules (and in the given
extra modules), so a call through `from ..linalg import rref` in
`graded`, `symgroup` or `affine.modules` is seen as well as one through
`hecke_bz.linalg.rref`; class methods are patched on the class.

A span is (id, name, start, end, parent id, child time).  Scalar dunders
run millions of times, so they are folded into per-name counters instead
of spans; their time still counts as child time of the enclosing span.
Self time is a span's duration minus the time of its children.
"""

from __future__ import annotations

import itertools
import sys
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" patches a class.
FUNCTIONS = {
    "linalg.rref": ("hecke_bz.linalg", "rref"),
    "linalg.kernel_subspace": ("hecke_bz.linalg", "kernel_subspace"),
    "linalg.column_space": ("hecke_bz.linalg", "column_space"),
    "linalg.mat_mul": ("hecke_bz.linalg", "mat_mul"),
    "linalg.restrict_operator": ("hecke_bz.linalg", "restrict_operator"),
    "affine.central_block": ("hecke_bz.affine.modules", "central_block"),
    "affine.induce": ("hecke_bz.affine.modules", "induce"),
    "affine.bz_derivative": ("hecke_bz.affine.modules", "bz_derivative"),
    "affine.principal_series": ("hecke_bz.affine.modules",
                                "principal_series"),
    "affine.verify_relations": ("hecke_bz.affine.modules",
                                "verify_relations"),
    "affine.leibniz_check": ("hecke_bz.affine.modules", "leibniz_check"),
    "affine.elements.mul": ("hecke_bz.affine.elements",
                            "AffineElement.__mul__"),
    "affine.oracle_apply": ("hecke_bz.affine.elements", "oracle_apply"),
    "affine.antispherical_apply": ("hecke_bz.affine.modules",
                                   "antispherical_apply"),
    "finite_hecke.mul": ("hecke_bz.finite_hecke",
                         "FiniteHeckeElement.__mul__"),
    "finite_hecke.sign_projector": ("hecke_bz.finite_hecke",
                                    "sign_projector"),
    "graded.speh_module": ("hecke_bz.graded", "speh_module"),
    "graded.g_bz_derivative": ("hecke_bz.graded", "g_bz_derivative"),
    "graded.decompose_as_speh": ("hecke_bz.graded", "decompose_as_speh"),
    "graded.pieri_verify": ("hecke_bz.graded", "pieri_verify"),
    "symgroup.decompose_sn": ("hecke_bz.symgroup", "decompose_sn"),
    "symgroup.sign_idempotent_matrix": ("hecke_bz.symgroup",
                                        "sign_idempotent_matrix"),
    "combinatorics.vertical_strips": ("hecke_bz.combinatorics",
                                      "vertical_strips"),
    "combinatorics.sn_multiplicities": ("hecke_bz.combinatorics",
                                        "sn_multiplicities"),
    "combinatorics.standard_tableaux": ("hecke_bz.combinatorics",
                                        "standard_tableaux"),
    "bridge.matrix_function": ("hecke_bz.bridge", "matrix_function"),
    "bridge.lambda_functor": ("hecke_bz.bridge", "lambda_functor"),
    "bridge.theta_spectrum_check": ("hecke_bz.bridge",
                                    "theta_spectrum_check"),
    "bridge.bridge_bz_compare": ("hecke_bz.bridge", "bridge_bz_compare"),
}

# metric prefix -> (module, class); the arithmetic and == dunders.
SCALARS = {
    "scalars.qrational": ("hecke_bz.scalars", "QRational"),
    "scalars.pkpoly": ("hecke_bz.scalars", "PKPoly"),
}
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
            "__eq__")


# counters beyond calls, self_s and total_s
_EXTRA = {
    "linalg.rref": ("cells", "rank_ratio"),
    "linalg.mat_mul": ("mults",),
    "affine.central_block": ("empty_ratio",),
}


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for prefix in SCALARS:
        names += [f"{prefix}.ops", f"{prefix}.self_s"]
    for prefix in FUNCTIONS:
        names += [f"{prefix}.{m}" for m in ("calls", "self_s", "total_s")]
        names += [f"{prefix}.{m}" for m in _EXTRA.get(prefix, ())]
    return names


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, child_s)
        self.scalar_ops = {p: 0 for p in SCALARS}
        self.scalar_self = {p: 0.0 for p in SCALARS}
        self.counters = {"linalg.rref.cells": 0, "linalg.rref.rows": 0,
                         "linalg.rref.pivots": 0, "linalg.mat_mul.mults": 0,
                         "affine.central_block.empty": 0}
        # open frames: [span id, child time]; id -1 is the root
        self._stack = [[-1, 0.0]]
        self._ids = itertools.count()
        self._installed = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        counters = self.counters
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[1] += end - start
                spans.append((frame[0], name, start, end, parent[0],
                              frame[1]))
            if count is not None:
                count(counters, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _scalar_wrapper(self, prefix, fn):
        stack = self._stack
        ops, self_s = self.scalar_ops, self.scalar_self

        def traced(*args):
            frame = [-1, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent[1] += dur
                ops[prefix] += 1
                self_s[prefix] += dur - frame[1]

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every layer function and rebind each of its import sites."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hecke_bz"
                                         or name.startswith("hecke_bz."))]
        modules += list(extra_modules)
        for prefix, (mod_name, cls_name) in SCALARS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for dunder in _DUNDERS:
                fn = cls.__dict__.get(dunder)
                if fn is not None:
                    self._patch(cls, dunder, fn,
                                self._scalar_wrapper(prefix, fn))
        for name, (mod_name, attr) in FUNCTIONS.items():
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, fn, self._span_wrapper(name, fn))
                continue
            fn = getattr(mod, attr)
            wrapped = self._span_wrapper(name, fn)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        self._patch(site, key, fn, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer calls, self and total seconds, and counters."""
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        total_s = dict.fromkeys(FUNCTIONS, 0.0)
        parents = {sid: (name, parent)
                   for sid, name, _, _, parent, _ in self.spans}
        for sid, name, start, end, parent, child_s in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s
            # a recursive call is already inside its caller's total
            if not _inside(name, parent, parents):
                total_s[name] += end - start
        out = {}
        for prefix in SCALARS:
            out[f"{prefix}.ops"] = self.scalar_ops[prefix]
            out[f"{prefix}.self_s"] = self.scalar_self[prefix]
        c = self.counters
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        out["linalg.rref.cells"] = c["linalg.rref.cells"]
        out["linalg.rref.rank_ratio"] = _ratio(c["linalg.rref.pivots"],
                                               c["linalg.rref.rows"])
        out["linalg.mat_mul.mults"] = c["linalg.mat_mul.mults"]
        out["affine.central_block.empty_ratio"] = _ratio(
            c["affine.central_block.empty"], calls["affine.central_block"])
        return out


def _inside(name, parent, parents) -> bool:
    """Whether a span named `name` is open above `parent`."""
    while parent != -1:
        pname, parent_next = parents[parent]
        if pname == name:
            return True
        parent = parent_next
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _count_rref(counters, args, out):
    A = args[0]
    rows = len(A)
    counters["linalg.rref.cells"] += rows * (len(A[0]) if rows else 0)
    counters["linalg.rref.rows"] += rows
    counters["linalg.rref.pivots"] += len(out[1])


def _count_mat_mul(counters, args, out):
    A, B = args[0], args[1]
    counters["linalg.mat_mul.mults"] += (
        len(A) * len(B) * (len(B[0]) if B else 0))


def _count_central_block(counters, args, out):
    if out.dim == 0:
        counters["affine.central_block.empty"] += 1


_COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.mat_mul": _count_mat_mul,
    "affine.central_block": _count_central_block,
}
