"""The record types keep their constructors, fields, ==, hash, repr and
to_dict results.  Every expected repr and dict below is a literal, so a
change to any of them shows here."""

import pytest

from hyperdense.density import DensityQuery, DensityReport, ProfileEntry, ProfileReport
from hyperdense.hypergraphs import Hypergraph, VertexMap
from hyperdense.inequalities import SliceStats, SubsetAuditReport, SupersaturationReport
from hyperdense.rainbow import Conflict, PairColouring, ShadowColouring
from hyperdense.reduced import CoreSelection, ReducedHypergraph, SelectionInstance, _Columns
from hyperdense.ternary import EmbeddingWitness

ENTRY = ProfileEntry(0.5, 2, 0.0, (0, 1, 2))

# (record type, its fields with values, a field and another value for it, repr)
RECORDS = [
    (Hypergraph, {"k": 3, "n": 4, "edges": ((0, 1, 2), (1, 2, 3))}, ("edges", ((0, 1, 2),)),
     "Hypergraph(k=3, n=4, edges=((0, 1, 2), (1, 2, 3)))"),
    (VertexMap, {"mapping": {0: 2, 1: 0}, "injective": True}, ("injective", False),
     "VertexMap(mapping={0: 2, 1: 0}, injective=True)"),
    (ShadowColouring, {"order": (1, 0, 2), "colours": {(0, 1): 3, (0, 2): 2, (1, 2): 1}}, ("order", (1, 2, 0)),
     "ShadowColouring(order=(1, 0, 2), colours={(0, 1): 3, (0, 2): 2, (1, 2): 1})"),
    (Conflict, {"face": (0, 1), "colour_a": 1, "colour_b": 2}, ("colour_b", 3),
     "Conflict(face=(0, 1), colour_a=1, colour_b=2)"),
    (PairColouring, {"k": 3, "n": 3, "colours": {(0, 1): 1, (0, 2): 2, (1, 2): 3}},
     ("colours", {(0, 1): 1, (0, 2): 2, (1, 2): 2}),
     "PairColouring(k=3, n=3, colours={(0, 1): 1, (0, 2): 2, (1, 2): 3})"),
    (EmbeddingWitness, {"k": 3, "length": 1, "mapping": {0: (0,), 1: (1,), 2: (2,)}}, ("length", 2),
     "EmbeddingWitness(k=3, length=1, mapping={0: (0,), 1: (1,), 2: (2,)})"),
    (DensityQuery, {"d": 0.25, "eta": 0.5, "mode": "heuristic", "budget": 10, "restarts": 2, "seed": 7},
     ("seed", 8), "DensityQuery(d=0.25, eta=0.5, mode='heuristic', budget=10, restarts=2, seed=7)"),
    (DensityReport, {"notion": "vertex", "verdict": "violated", "d": 0.5, "eta": 0.01, "certificate": {"U": [0, 1]},
                     "slack": -0.25, "stats": {"mode": "exact", "argmin": [0, 1]}}, ("slack", -0.5),
     "DensityReport(notion='vertex', verdict='violated', d=0.5, eta=0.01, certificate={'U': [0, 1]}, "
     "slack=-0.25, stats={'mode': 'exact', 'argmin': [0, 1]})"),
    (ProfileEntry, {"eta": 0.5, "size_floor": 2, "density": 0.0, "subset": (0, 1, 2)}, ("density", None),
     "ProfileEntry(eta=0.5, size_floor=2, density=0.0, subset=(0, 1, 2))"),
    (ProfileReport, {"entries": [ENTRY], "mode": "exact", "stats": {"subsets_examined": 16}}, ("mode", "heuristic"),
     "ProfileReport(entries=[ProfileEntry(eta=0.5, size_floor=2, density=0.0, subset=(0, 1, 2))], mode='exact', "
     "stats={'subsets_examined': 16})"),
    (CoreSelection, {"indices": (0, 1, 2), "red": {(0, 1): 0}, "blue": {(0, 2): 1}, "green": {(1, 2): 0}},
     ("red", {(0, 1): 1}), "CoreSelection(indices=(0, 1, 2), red={(0, 1): 0}, blue={(0, 2): 1}, green={(1, 2): 0})"),
    (_Columns, {"m": 3, "triples": "triples", "sizes": "sizes", "keys": "keys", "span": 2, "width": 2}, ("span", 3),
     "_Columns(m=3, triples='triples', sizes='sizes', keys='keys', span=2, width=2)"),
    (SelectionInstance, {"size": 3, "classes": {(0, 1): (0, 1)}, "candidates": {(0, 1, 2): frozenset({1})}},
     ("size", 4), "SelectionInstance(size=3, classes={(0, 1): (0, 1)}, candidates={(0, 1, 2): frozenset({1})})"),
    (SubsetAuditReport, {"level": 3, "mode": "sampled", "examined": 500, "violations": [], "seed": 9},
     ("seed", None), "SubsetAuditReport(level=3, mode='sampled', examined=500, violations=[], seed=9)"),
    (SliceStats, {"r": 1, "n": 2, "eta": 0.6666666666666666, "size": 6, "edges": 2, "bound": 0.5,
                  "ratio": 0.9876543209876543}, ("edges", 3),
     "SliceStats(r=1, n=2, eta=0.6666666666666666, size=6, edges=2, bound=0.5, ratio=0.9876543209876543)"),
    (SupersaturationReport, {"vertices": 5, "edges": 4, "entries": [(1, 6, 0.024691358024691357)]}, ("vertices", 6),
     "SupersaturationReport(vertices=5, edges=4, entries=[(1, 6, 0.024691358024691357)])"),
]
# the records that hash, by the tuple of their fields
HASHABLE = (Hypergraph, Conflict, _Columns, SliceStats)
# the records whose fields cannot be assigned
FROZEN = (Hypergraph, VertexMap, ShadowColouring, Conflict, EmbeddingWitness, ProfileEntry, CoreSelection, _Columns,
          SelectionInstance, SubsetAuditReport, SliceStats, SupersaturationReport)


@pytest.mark.parametrize("cls, fields, change, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_construction_equality_and_repr(cls, fields, change, text):
    record = cls(*fields.values())
    assert record == cls(**fields) and not record != cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    field, value = change
    other = cls(**{**fields, field: value})
    assert record != other and not record == other
    assert repr(record) == text
    if cls in HASHABLE:
        assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert record != other


def test_reduced_hypergraph_record():
    args = {"m": 3, "class_sizes": {(0, 1): 1, (0, 2): 2, (1, 2): 1}, "constituents": {(0, 1, 2): [(0, 1, 0)]}}
    rh = ReducedHypergraph(*args.values())
    assert rh == ReducedHypergraph(**args) and not rh != ReducedHypergraph(**args)
    assert rh != ReducedHypergraph(**{**args, "constituents": {(0, 1, 2): [(0, 0, 0)]}})
    assert (rh.m, rh.class_sizes, rh.sparsest) == (3, args["class_sizes"], (0, 1, 2))
    assert (list(rh.offsets), list(rh.codes)) == ([0, 1], [1])
    assert repr(rh) == "ReducedHypergraph(m=3, class_sizes={(0, 1): 1, (0, 2): 2, (1, 2): 1})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(rh)


def test_density_query_defaults():
    assert repr(DensityQuery(0.5, 0.01)) == ("DensityQuery(d=0.5, eta=0.01, mode='exact', budget=1000, restarts=64, "
                                             "seed=0)")


def test_density_report_fields_can_be_assigned_and_to_dict_copies_them():
    report = DensityReport("vertex", "violated", 0.5, 0.01, {"U": [0, 1]}, -0.25, {"mode": "exact", "argmin": [0, 1]})
    out = report.to_dict()
    assert out == {"notion": "vertex", "verdict": "violated", "d": 0.5, "eta": 0.01, "certificate": {"U": [0, 1]},
                   "slack": -0.25, "stats": {"mode": "exact", "argmin": [0, 1]}}
    out["certificate"]["U"].append(2)
    out["stats"]["argmin"].append(2)
    assert report.certificate == {"U": [0, 1]} and report.stats["argmin"] == [0, 1]
    report.certificate = {"U": [0, 99]}
    report.verdict = "satisfied"
    assert report.to_dict()["certificate"] == {"U": [0, 99]} and report.verdict == "satisfied"


def test_profile_report_to_dict_and_default_stats():
    report = ProfileReport([ENTRY, ProfileEntry(1.0, 4, None, None)], "exact", {"subsets_examined": 16})
    assert report.to_dict() == {
        "notion": "profile", "mode": "exact",
        "entries": [{"eta": 0.5, "size_floor": 2, "density": 0.0, "certificate": {"U": [0, 1, 2]}},
                    {"eta": 1.0, "size_floor": 4, "density": None, "certificate": None}],
        "stats": {"subsets_examined": 16},
    }
    a, b = ProfileReport([], "heuristic"), ProfileReport([], "heuristic")
    assert a.to_dict() == {"notion": "profile", "mode": "heuristic", "entries": [], "stats": {}}
    assert a.stats is not b.stats


def test_subset_audit_report_to_dict_copies_its_violations():
    violation = {"subset": [0, 1], "size": 2, "edges": 0, "bound": -3.0}
    report = SubsetAuditReport(2, "exact", 512, [violation])
    out = report.to_dict()
    assert out == {"level": 2, "mode": "exact", "examined": 512,
                   "violations": [{"subset": [0, 1], "size": 2, "edges": 0, "bound": -3.0}], "seed": None}
    out["violations"][0]["subset"].append(2)
    assert violation["subset"] == [0, 1]
    assert SubsetAuditReport(3, "sampled", 500, [], seed=9).to_dict() == {
        "level": 3, "mode": "sampled", "examined": 500, "violations": [], "seed": 9}
