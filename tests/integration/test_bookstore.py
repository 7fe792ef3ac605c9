"""Integration: the multi-anomaly bookstore workload.

Exercises a two-step normalization mixing both transformation kinds,
plus the correct *non*-anomaly: ``isbn -> format`` is harmless because
``isbn`` is a key (``isbn -> book`` is in Σ), so the algorithm must
leave ``format`` in place.
"""

import pytest

from repro.datasets.bookstore import bookstore_document, bookstore_spec
from repro.fd.satisfaction import satisfies_all
from repro.lossless.check import check_normalization_lossless
from repro.report import analyze
from repro.xmltree.conformance import conforms
from repro.xnf.check import is_in_xnf


@pytest.fixture(scope="module")
def pipeline():
    spec = bookstore_spec()
    result = spec.normalize()
    return spec, result


class TestSchema:
    def test_two_anomalies_only(self, pipeline):
        """Exactly the publisher and currency FDs violate XNF; the key
        ``@isbn -> book`` keeps ``@isbn -> @format`` out."""
        spec, result = pipeline
        assert sorted(str(fd) for fd in spec.xnf_violations()) == [
            "store.book.@publisher -> store.book.@publisher_city",
            "store.order -> store.order.item.@currency",
        ]
        assert len(result.steps) == 2

    def test_both_transformations_used(self, pipeline):
        _spec, result = pipeline
        assert sorted(step.kind for step in result.steps) == \
            ["create", "move"]

    def test_key_protected_fd_not_touched(self, pipeline):
        """isbn -> format is not anomalous: format stays on book."""
        _spec, result = pipeline
        assert "@format" in result.dtd.attrs("book")

    def test_currency_moved_to_order(self, pipeline):
        _spec, result = pipeline
        assert "@currency" in result.dtd.attrs("order")
        assert "@currency" not in result.dtd.attrs("item")

    def test_publisher_city_grouped(self, pipeline):
        _spec, result = pipeline
        assert "@publisher_city" not in result.dtd.attrs("book")
        new_types = result.dtd.element_types - \
            bookstore_spec().dtd.element_types
        assert any("@publisher_city" in result.dtd.attrs(t)
                   for t in new_types)

    def test_result_in_xnf(self, pipeline):
        _spec, result = pipeline
        assert is_in_xnf(result.dtd, result.sigma)


class TestDocuments:
    @pytest.mark.parametrize("seed", range(3))
    def test_migration_and_losslessness(self, pipeline, seed):
        spec, result = pipeline
        doc = bookstore_document(5, 3, 2, seed=seed)
        assert spec.document_satisfies(doc)
        migrated = result.migrate(doc)
        assert conforms(migrated, result.dtd)
        assert satisfies_all(migrated, result.dtd, result.sigma)
        assert check_normalization_lossless(result, spec.dtd, doc)

    def test_redundancy_eliminated(self, pipeline):
        spec, _result = pipeline
        doc = bookstore_document(8, 5, 4, publishers=3, seed=1)
        report = analyze(spec, [doc])
        assert report.documents[0].total_redundancy > 0
        assert report.migrated_redundancy == [0]

    def test_larger_scale(self, pipeline):
        spec, result = pipeline
        doc = bookstore_document(20, 10, 4, seed=2)
        migrated = result.migrate(doc)
        assert conforms(migrated, result.dtd)
