"""Span recorder that traces dehncalc from outside the package.

``install`` wraps named dehncalc functions and rebinds the wrapper in
every dehncalc module namespace that holds the original, so calls made
through ``from .x import f`` bindings are seen too (``cli`` binds
``oracle_cross_check``, ``families`` binds ``lens_space``).

Spans are aggregated per name as they close, not stored: the compare
workload opens millions of them.  A span's self time is its duration
minus the time covered by its child spans.  Counter hooks run after the
span closes, and their time is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # One accumulator of child-span time per open span; the bottom
        # entry collects top-level spans and is never read.
        self._child_time = [0.0]

    def wrap(self, name, fn, after=None):
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = perf_counter()
                if after is not None:
                    after(self, result, *args, **kwargs)
                return result
            finally:
                if end is None:
                    end = perf_counter()
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - child
                stack[-1] += perf_counter() - start

        return traced


def install(recorder: Recorder, targets) -> None:
    """Wrap each (module, function, span name, after-hook) target."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "dehncalc" or n.startswith("dehncalc.")]
    for module_name, func_name, span, after in targets:
        original = getattr(importlib.import_module(module_name), func_name)
        wrapper = recorder.wrap(span, original, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _count_crossings(rec, diagram, *args):
    rec.counts["diagrams.crossings"] += len(diagram.crossings)


def _count_white_faces(rec, board, *args):
    rec.counts["diagrams.white_faces"] += len(board.white)


def _count_determinant(rec, det, rows):
    rec.counts["diagrams.matrix_nonzeros"] += sum(
        1 for row in rows for x in row if x)
    rec.counts["diagrams.det_bits"] += abs(det).bit_length()


def _count_checks(rec, report, *args):
    for check in report.checks:
        rec.counts[f"families.checks.{check.kind}.{check.status.value}"] += 1


def _count_bytes(rec, text, *args):
    rec.counts["reports.bytes_out"] += len(text.encode("utf-8"))


CONSTRUCTORS = ("lens_space", "sfs_orders", "connected_sum", "torus_union")

TARGETS = (
    ("dehncalc.cli", "main", "cli.main", None),
    ("dehncalc.reports", "emit_report", "reports.emit_report", _count_bytes),
    ("dehncalc.parsing", "parse_link_expr", "parsing.parse_link_expr", None),
    ("dehncalc.parsing", "parse_manifold_expr", "parsing.parse_manifold_expr",
     None),
    ("dehncalc.slopes", "continued_fraction", "slopes.continued_fraction",
     None),
    ("dehncalc.links", "link_determinant", "links.link_determinant", None),
    ("dehncalc.cover", "double_branched_cover", "cover.double_branched_cover",
     None),
    ("dehncalc.manifolds", "h1", "manifolds.h1", None),
    ("dehncalc.manifolds", "classify_finite_type",
     "manifolds.classify_finite_type", None),
    ("dehncalc.manifolds", "manifold_compare", "manifolds.manifold_compare",
     None),
    *(("dehncalc.manifolds", f, f"manifolds.{f}", None) for f in CONSTRUCTORS),
    ("dehncalc.families", "verify_family", "families.verify_family",
     _count_checks),
    ("dehncalc.diagrams", "oracle_cross_check", "diagrams.oracle_cross_check",
     None),
    ("dehncalc.diagrams", "build_standard_diagram", "diagrams.build",
     _count_crossings),
    ("dehncalc.diagrams", "faces", "diagrams.faces", None),
    ("dehncalc.diagrams", "checkerboard", "diagrams.checkerboard",
     _count_white_faces),
    ("dehncalc.diagrams", "goeritz_matrix", "diagrams.goeritz_matrix", None),
    ("dehncalc.diagrams", "exact_determinant", "diagrams.exact_determinant",
     _count_determinant),
)
