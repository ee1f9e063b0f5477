"""Span recorder for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
layer modules. A wrapper is installed under each name a consumer looks the
function up by (for example ``symcone.runner.check_homogeneity`` as well as
``symcone.cone.check_homogeneity``), so calls made through imported names
are seen. Spans are kept in memory as tuples and written once at the end.

A span records ``(name, layer, site, cert, start, end, parent, rss_kb)``:
``layer`` is the module that defines the function, ``site`` the module the
caller looked it up in, ``cert`` the certificate a runner-level call belongs
to, and ``rss_kb`` the growth of the process high-water mark (``ru_maxrss``)
across the span.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time

PACKAGE = "symcone"
LAYERS = (
    "cli",
    "modelfile",
    "runner",
    "algebra",
    "spectral",
    "cone",
    "reconstruction",
    "models",
    "composites",
)

# Runner-level calls that do not return a certificate but are the work of
# one. Calls that return a ConeCertificate are named by its check_name.
CERT_OF_RUNNER_CALL = {
    "jordan_identity_residuals": "jordan_identity",
    "commutativity_residuals": "commutativity",
    "unit_law_residuals": "unit_law",
    "trace_associativity_residuals": "trace_associativity",
    "random_element": "formal_reality",
    "check_formal_reality": "formal_reality",
    "p_to_E_isomorphism": "structure_dims",
    "reconstruct_product": "product_reconstruction",
    "uniform_state": "uniform_state_values",
    "evaluate": "uniform_state_values",
    "trace_of": "uniform_state_values",
    "trace_form": "uniform_state_values",
    "qubit_witness": "qubit_witness",
    "spin_qubit_isomorphism": "qubit_witness",
    "format_descriptor": "qubit_witness",
}

# The certificate names the runner reports, in report order.
CERTIFICATES = (
    "jordan_identity",
    "commutativity",
    "unit_law",
    "trace_associativity",
    "formal_reality",
    "self_duality",
    "membership_agreement",
    "homogeneity_transport",
    "order_unit",
    "structure_dims",
    "unit_stabilizer_split",
    "sym_bracket_in_skew",
    "product_reconstruction",
    "exp_preserves_cone",
    "uniform_state_values",
    "unital_sharp_outcomes",
    "uniform_unital_outcomes_primitive",
    "primitive_pairing_bounds",
    "reversible_stabilizer",
    "qubit_witness",
    "local_tomography",
    "product_tests_resolve_unit",
    "nonsignaling_marginals",
    "pairing_factorization",
    "unit_factor_products",
    "tensor_lmap",
    "tensor_lmap_embedded",
    "tensor_adjoint",
)

# Name of the spans around the first ``symcone.unit(A)`` per algebra. The
# probe child records them with no wrappers installed, and they count to no
# layer's self time.
CONTEXT_BUILD = "algebra.context_build"

NAME, LAYER, SITE, CERT, START, END, PARENT, RSS_KB = range(8)


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans around wrapped calls in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def record(self, name: str, layer: str, start: float, end: float, rss_kb: int) -> None:
        """Add a top-level span timed by the caller, outside any wrapped call."""
        self.spans.append((name, layer, "", "", start, end, -1, rss_kb))

    def wrap(self, fn, layer: str, site: str):
        name = f"{layer}.{fn.__name__}"
        fixed_cert = CERT_OF_RUNNER_CALL.get(fn.__name__, "") if site == "runner" else ""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            rss0 = maxrss_kb()
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                cert = fixed_cert
                if site == "runner" and not cert:
                    cert = getattr(result, "check_name", "")
                spans[index] = (
                    name, layer, site, cert, start, end, parent, maxrss_kb() - rss0
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions under every name they are bound to."""
        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod is not None
            and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        }
        originals = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    originals[id(value)] = (value, layer)
        for mod_name, mod in modules.items():
            site = mod_name.rpartition(".")[2] if "." in mod_name else PACKAGE
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, self.wrap(value, hit[1], site))


def summarize(spans: list) -> dict[str, float]:
    """Per-layer totals of one traced invocation.

    Self time is a span's duration minus the time its direct children
    cover; spans are strictly nested because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        layer = span[LAYER]
        if span[NAME] == CONTEXT_BUILD:
            add("algebra.context_build_s", duration)
            add("algebra.context_peak_mb", span[RSS_KB] / 1024.0)
        if layer not in LAYERS:
            continue
        add(f"{layer}.self_s", duration - child_time[index])
        add(f"{layer}.calls", 1)
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        nested_in_layer = parent is not None and parent[LAYER] == layer
        if layer == "modelfile" and not nested_in_layer:
            add("modelfile.s", duration)
        if span[SITE] == "runner" and span[CERT]:
            add(f"cert.{span[CERT]}.s", duration)
        if span[NAME] == "reconstruction.structure_lie_basis" and not nested_in_layer:
            add("reconstruction.lie_basis_s", duration)
            out["reconstruction.lie_peak_mb"] = max(
                out.get("reconstruction.lie_peak_mb", 0.0), span[RSS_KB] / 1024.0
            )
        if span[NAME] == "composites.candidate_composite" and not nested_in_layer:
            add("composites.candidate_s", duration)
    return out
