"""Outside-in span tracer for cpk.

``Tracer.install`` swaps a timing wrapper in for each function in TARGETS at
every place it is bound: the defining module, every ``cpk`` module that
imported it by name (``ktheory`` does ``from .exactseq import verify_exact``),
and the class for methods. ``restore`` puts the original objects back.
Nothing inside cpk is edited.

A span is [document, name, start, end, parent index, bookkeeping seconds,
extra]. Spans of one document share its id; they stay in memory until
``write`` dumps them. Self time is a span's duration minus its child spans
and the tracer's own bookkeeping after each child.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module, attribute path, span name). The four validators share one name.
TARGETS = (
    ("cpk.abelian", "smith_normal_form", "abelian.snf"),
    ("cpk.abelian", "Presentation.__init__", "abelian.presentation"),
    ("cpk.abelian", "Presentation.reduce", "abelian.reduce"),
    ("cpk.abelian", "Presentation.hom_to", "abelian.hom_to"),
    ("cpk.exactseq", "verify_exact", "exactseq.verify_exact"),
    ("cpk.exactseq", "solve_six_term", "exactseq.solve_six_term"),
    ("cpk.exactseq", "extension_candidates", "exactseq.ext_candidates"),
    ("cpk.ktheory", "iterated_ktheory", "ktheory.iterated"),
    ("cpk.ktheory", "diagram_report", "ktheory.diagram"),
    ("cpk.ktheory", "cuntz_pimsner_ktheory", "ktheory.cuntz_pimsner"),
    ("cpk.fock", "build_fock", "fock.build"),
    ("cpk.fock", "check_toeplitz", "fock.toeplitz"),
    ("cpk.fock", "check_covariance_defect", "fock.covariance"),
    ("cpk.fock", "check_chi_commutation", "fock.chi_commutation"),
    ("cpk.fock", "check_reordering", "fock.reordering"),
    ("cpk.fock", "check_left_action_adjoint", "fock.adjoint"),
    ("cpk.fock", "FockRep.annihilator", "fock.annihilator"),
    ("cpk.model", "validate_graph", "model.validate"),
    ("cpk.model", "validate_chi", "model.validate"),
    ("cpk.model", "AbstractKData.validate", "model.validate"),
    ("cpk.model", "UnitaryChi.validate", "model.validate"),
    ("cpk.cli", "parse_document", "cli.parse"),
)

DOCUMENT = "cli"  # name of the root span around one cpk.cli.main call

# (unit, better) of every per-layer metric, in report order. Counts and
# seconds are per traced document; "_max" values are over the traced run.
PER_LAYER = {
    "abelian.snf_calls": ("calls/doc", "lower"),
    "abelian.snf_s": ("s/doc", "lower"),
    "abelian.snf_distinct_frac": ("frac", "higher"),
    "abelian.snf_max_cells": ("cells", "lower"),
    "abelian.snf_max_bits": ("bits", "lower"),
    "abelian.snf_from_reduce_frac": ("frac", "lower"),
    "abelian.reduce_calls": ("calls/doc", "lower"),
    "abelian.reduce_s": ("s/doc", "lower"),
    "abelian.hom_to_calls": ("calls/doc", "lower"),
    "abelian.hom_to_s": ("s/doc", "lower"),
    "abelian.presentation_builds": ("calls/doc", "lower"),
    "exactseq.verify_exact_s": ("s/doc", "lower"),
    "exactseq.solve_six_term_calls": ("calls/doc", "lower"),
    "exactseq.ext_candidates_s": ("s/doc", "lower"),
    "exactseq.ext_classes_scanned": ("classes/doc", "lower"),
    "exactseq.ext_candidates_returned": ("groups/doc", "lower"),
    "exactseq.ext_classes_max_vs_cap": ("ratio", "lower"),
    "exactseq.ext_torsion_max_vs_bound": ("ratio", "lower"),
    "ktheory.iterated_s": ("s/doc", "lower"),
    "ktheory.diagram_s": ("s/doc", "lower"),
    "ktheory.cuntz_pimsner_calls": ("calls/doc", "lower"),
    "ktheory.couplings_max_vs_cap": ("ratio", "lower"),
    "fock.build_s": ("s/doc", "lower"),
    "fock.basis_dim_max": ("words", "lower"),
    "fock.basis_vs_cap": ("ratio", "lower"),
    "fock.toeplitz_s": ("s/doc", "lower"),
    "fock.covariance_s": ("s/doc", "lower"),
    "fock.chi_commutation_s": ("s/doc", "lower"),
    "fock.reordering_s": ("s/doc", "lower"),
    "fock.adjoint_s": ("s/doc", "lower"),
    "fock.annihilator_s": ("s/doc", "lower"),
    "model.validate_s": ("s/doc", "lower"),
    "cli.parse_s": ("s/doc", "lower"),
    "cli.self_s": ("s/doc", "lower"),
    "trace.docs": ("docs", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

_START, _END, _PARENT, _POST, _EXTRA = 2, 3, 4, 5, 6


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) of a dotted path inside a module."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def bindings():
    """Every (owner, attribute, original, span name) a tracer patches."""
    cpk_modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cpk" or name.startswith("cpk."))
    ]
    out = []
    for module_name, path, span in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        out.append((owner, attr, original, span))
        if isinstance(owner, type):
            continue
        for module in cpk_modules:
            if module is owner:
                continue
            for name, value in vars(module).items():
                if value is original:
                    out.append((module, name, original, span))
    return out


def _max_abs_bits(matrices) -> int:
    top = 0
    for mat in matrices:
        for row in mat.to_lists():
            for x in row:
                if x > top or -x > top:
                    top = abs(x)
    return top.bit_length()


def _observe_snf(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return (m, m.rows * m.cols, _max_abs_bits((result.U, result.S, result.V)))


def _observe_ext(args, kwargs, result):
    import cpk.exactseq as exactseq

    names = ("n_group", "q_group", "bound")
    given = dict(zip(names, args), **kwargs)
    n_group, q_group = given["n_group"], given["q_group"]
    bound = given.get("bound")
    bound = exactseq.ext_bound() if bound is None else bound
    classes = 1
    for q in q_group.torsion:
        count = q ** n_group.free_rank
        for d in n_group.torsion:
            count *= math.gcd(q, d)
        classes *= count
    torsion = n_group.torsion_order * q_group.torsion_order
    return (classes, torsion / bound, len(result))


def _observe_iterated(args, kwargs, result):
    import cpk.model as model

    spec = args[0] if args else kwargs["spec"]
    return isinstance(spec, model.AbstractKData)


def _observe_fock(args, kwargs, result):
    return result.dimension


_OBSERVERS = {
    "abelian.snf": _observe_snf,
    "exactseq.ext_candidates": _observe_ext,
    "ktheory.iterated": _observe_iterated,
    "fock.build": _observe_fock,
}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.doc = None

    # -- spans

    def span(self, name: str, fn, observe=None):
        """A wrapper around fn that records one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [self.doc, name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(record)
            stack.append(index)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if observe is not None:
                record[_EXTRA] = observe(args, kwargs, result)
                record[_POST] = clock() - record[_END]
            return result

        return wrapper

    def document(self, doc_id, fn, *args):
        """Run fn(*args) as the root span of one document."""
        self.doc = doc_id
        try:
            return self.span(DOCUMENT, fn)(*args)
        finally:
            self.doc = None

    # -- installation

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, name in bindings():
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.span(name, original, _OBSERVERS.get(name))
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results

    def counts(self) -> dict:
        out = {}
        for s in self.spans:
            out[s[1]] = out.get(s[1], 0) + 1
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                extra = s[_EXTRA]
                if s[1] == "abelian.snf" and extra is not None:
                    extra = list(extra[1:])  # the input matrix stays in memory
                fh.write(json.dumps(s[:_EXTRA] + [extra]) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics of every traced document (see PER_LAYER)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                covered[s[_PARENT]] += s[_END] - s[_START] + s[_POST]
        calls, self_s = {}, {}
        for s, child in zip(spans, covered):
            calls[s[1]] = calls.get(s[1], 0) + 1
            self_s[s[1]] = self_s.get(s[1], 0.0) + (s[_END] - s[_START]) - child
        docs = max(calls.get(DOCUMENT, 0), 1)

        snf_keys = {}
        snf_cells = snf_bits = 0
        ext = [0, 0.0, 0.0, 0]  # classes scanned, max class ratio, max torsion ratio, returned
        dim_max = 0
        cp_children = {}
        abstract_iterated = []
        for i, s in enumerate(spans):
            name, extra = s[1], s[_EXTRA]
            if name == "ktheory.cuntz_pimsner" and s[_PARENT] >= 0:
                cp_children[s[_PARENT]] = cp_children.get(s[_PARENT], 0) + 1
            if extra is None:  # no observer, or the call raised
                continue
            if name == "abelian.snf":
                snf_keys.setdefault(s[0], set()).add(extra[0])
                snf_cells = max(snf_cells, extra[1])
                snf_bits = max(snf_bits, extra[2])
            elif name == "exactseq.ext_candidates":
                ext[0] += extra[0]
                ext[1] = max(ext[1], extra[0])
                ext[2] = max(ext[2], extra[1])
                ext[3] += extra[2]
            elif name == "fock.build":
                dim_max = max(dim_max, extra)
            elif name == "ktheory.iterated" and extra:
                abstract_iterated.append(i)

        import cpk.exactseq as exactseq
        import cpk.fock as fock
        import cpk.ktheory as ktheory

        # An abstract iterated run makes two single-stage calls per order and
        # one per coupling; both orders together bound the worse order's use.
        couplings = max(
            (cp_children.get(i, 0) - 4 for i in abstract_iterated), default=0
        )
        snf_calls = calls.get("abelian.snf", 0)

        def per_doc(table, name):
            return table.get(name, 0) / docs

        return {
            "abelian.snf_calls": per_doc(calls, "abelian.snf"),
            "abelian.snf_s": per_doc(self_s, "abelian.snf"),
            "abelian.snf_distinct_frac": (
                sum(len(k) for k in snf_keys.values()) / snf_calls if snf_calls else 0.0
            ),
            "abelian.snf_max_cells": snf_cells,
            "abelian.snf_max_bits": snf_bits,
            "abelian.reduce_calls": per_doc(calls, "abelian.reduce"),
            "abelian.reduce_s": per_doc(self_s, "abelian.reduce"),
            "abelian.hom_to_calls": per_doc(calls, "abelian.hom_to"),
            "abelian.hom_to_s": per_doc(self_s, "abelian.hom_to"),
            "abelian.presentation_builds": per_doc(calls, "abelian.presentation"),
            "exactseq.verify_exact_s": per_doc(self_s, "exactseq.verify_exact"),
            "exactseq.solve_six_term_calls": per_doc(calls, "exactseq.solve_six_term"),
            "exactseq.ext_candidates_s": per_doc(self_s, "exactseq.ext_candidates"),
            "exactseq.ext_classes_scanned": ext[0] / docs,
            "exactseq.ext_candidates_returned": ext[3] / docs,
            "exactseq.ext_classes_max_vs_cap": ext[1] / exactseq._ENUM_CAP,
            "exactseq.ext_torsion_max_vs_bound": ext[2],
            "ktheory.iterated_s": per_doc(self_s, "ktheory.iterated"),
            "ktheory.diagram_s": per_doc(self_s, "ktheory.diagram"),
            "ktheory.cuntz_pimsner_calls": per_doc(calls, "ktheory.cuntz_pimsner"),
            "ktheory.couplings_max_vs_cap": max(couplings, 0) / ktheory._COUPLING_CAP,
            "fock.build_s": per_doc(self_s, "fock.build"),
            "fock.basis_dim_max": dim_max,
            "fock.basis_vs_cap": dim_max / fock.BASIS_CAP,
            "fock.toeplitz_s": per_doc(self_s, "fock.toeplitz"),
            "fock.covariance_s": per_doc(self_s, "fock.covariance"),
            "fock.chi_commutation_s": per_doc(self_s, "fock.chi_commutation"),
            "fock.reordering_s": per_doc(self_s, "fock.reordering"),
            "fock.adjoint_s": per_doc(self_s, "fock.adjoint"),
            "fock.annihilator_s": per_doc(self_s, "fock.annihilator"),
            "model.validate_s": per_doc(self_s, "model.validate"),
            "cli.parse_s": per_doc(self_s, "cli.parse"),
            "cli.self_s": per_doc(self_s, DOCUMENT),
        }

    def snf_from_reduce(self) -> tuple:
        """(SNF calls whose caller span is reduce, all SNF calls)."""
        spans = self.spans
        total = from_reduce = 0
        for s in spans:
            if s[1] == "abelian.snf":
                total += 1
                if s[_PARENT] >= 0 and spans[s[_PARENT]][1] == "abelian.reduce":
                    from_reduce += 1
        return from_reduce, total
