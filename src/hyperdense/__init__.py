"""hyperdense: decision procedures and density auditors for k-uniform hypergraphs.

The package exports resolve lazily (PEP 562): ``import hyperdense`` loads no
submodule, and the first access to a name imports the module defining it.  A
command therefore loads only the modules it runs, and numpy only when a kernel
needs it: the heuristic and three-set density audits, the exact vertex and
profile audits past 12 vertices, the inequality scan past resolution 128, the
sampled subset audit, the rainbow selection on a mu-dense input past 10
indices and hom counts into large hosts (``hyperdense.cli`` lists them).  The
records are named tuples and plain classes, and hashlib loads with the first
seed drawn.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "hypergraphs": (
        "Hypergraph",
        "HypergraphParseError",
        "VertexMap",
        "complete_hypergraph",
        "contains_copy",
        "count_embeddings",
        "count_homomorphisms",
        "enumerate_hypergraphs",
        "induced_edge_count",
        "is_embedding",
        "parse_hypergraph",
        "relabel",
        "serialize_hypergraph",
        "shadow",
    ),
    "rainbow": (
        "Conflict",
        "PairColouring",
        "ShadowColouring",
        "build_pattern_host",
        "find_rainbow_ordering",
        "forced_colouring",
        "random_pair_colouring",
        "verify_rainbow_colouring",
    ),
    "ternary": (
        "EmbeddingWitness",
        "build_kary",
        "find_kary_embedding",
        "is_frequent",
        "kary_edge",
        "kary_edge_count",
        "verify_kary_embedding",
    ),
    "density": (
        "DensityQuery",
        "DensityReport",
        "ProfileReport",
        "density_profile",
        "triple_density_check",
        "verify_density_certificate",
        "vertex_density_check",
    ),
    "reduced": (
        "CoreSelection",
        "MuDensityError",
        "ReducedHypergraph",
        "is_mu_dense",
        "select_rainbow_core",
        "verify_core",
    ),
    "inequalities": (
        "RHO",
        "TAU",
        "audit_kary_subsets",
        "binary_prefix_slice",
        "inequality_gap",
        "scan_inequality",
        "supersaturation_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
