import importlib
import pkgutil

import pytest

import cwsa_eval
from cwsa_eval import GradientEntry, RiskCoveragePoint, cwsa_gradient, risk_coverage_points
from conftest import make_set

MODULES = ["cwsa_eval"] + [
    f"cwsa_eval.{info.name}" for info in pkgutil.iter_modules(cwsa_eval.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    """A name left in ``__all__`` after its definition is gone breaks
    ``from cwsa_eval import *``."""
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


class TestRecordTypes:
    """The per-record outputs of ``cwsa_gradient`` and ``risk_coverage_points``."""

    def test_field_order(self):
        assert GradientEntry._fields == ("index", "value", "status")
        assert RiskCoveragePoint._fields == ("coverage", "risk")

    def test_records_are_immutable(self):
        ds = make_set([(0.2, True), (0.9, False)])
        entry = cwsa_gradient(ds, 0.5)[0]
        point = risk_coverage_points(ds)[0]
        for record, name in ((entry, "value"), (entry, "status"), (point, "risk")):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            entry.extra = 1

    def test_repr(self):
        ds = make_set([(0.2, True), (0.5, False)])
        entries = cwsa_gradient(ds, 0.5)
        assert repr(entries[0]) == "GradientEntry(index=0, value=0.0, status='abstained')"
        assert repr(entries[1]) == "GradientEntry(index=1, value=None, status='kink')"
        assert repr(risk_coverage_points(ds)[0]) == "RiskCoveragePoint(coverage=0.5, risk=1.0)"

    def test_both_return_a_list_of_their_record_type(self):
        ds = make_set([(0.2, True), (0.9, False), (0.7, True)])
        entries = cwsa_gradient(ds, 0.5)
        points = risk_coverage_points(ds)
        assert type(entries) is list and type(points) is list
        assert all(type(e) is GradientEntry for e in entries)
        assert all(type(p) is RiskCoveragePoint for p in points)
