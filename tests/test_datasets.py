"""Unit tests for the paper-dataset stand-ins (Tables 1-2 regimes)."""

import pytest

from repro.datasets import (
    DATASETS,
    FTV_DATASETS,
    NFV_DATASETS,
    SCALES,
    build_ftv_graphs,
    build_graphs,
    build_nfv_graph,
    dataset_kind,
    graphgen_like,
    human_like,
    ppi_like,
    summarize_collection,
    summarize_graph,
    wordnet_like,
    yeast_like,
)


class TestNFVDatasets:
    def test_yeast_regime(self):
        g = yeast_like(n=300, num_labels=30)
        assert g.order == 300
        assert g.is_connected()
        # sparse power-law: avg degree near the paper's 8
        assert 4 <= g.average_degree() <= 12
        assert len(g.distinct_labels()) > 10

    def test_human_denser_than_yeast(self):
        y = yeast_like(n=300, num_labels=30)
        h = human_like(n=300, num_labels=12)
        assert h.average_degree() > y.average_degree()

    def test_wordnet_near_tree_few_labels(self):
        g = wordnet_like(n=500)
        assert g.is_connected()
        assert g.average_degree() < 4
        assert len(g.distinct_labels()) <= 5

    def test_wordnet_label_skew(self):
        g = wordnet_like(n=2000)
        freqs = sorted(g.label_frequencies().values(), reverse=True)
        # the paper stresses wordnet's "highly skewed" label frequencies
        assert freqs[0] > 5 * freqs[-1]

    def test_determinism(self):
        assert yeast_like(n=200).same_labeled_structure(yeast_like(n=200))

    def test_custom_seed_changes_graph(self):
        a = yeast_like(n=200, seed=1)
        b = yeast_like(n=200, seed=2)
        assert not a.same_labeled_structure(b)


class TestFTVDatasets:
    def test_ppi_graphs_disconnected(self):
        graphs = ppi_like(num_graphs=4, avg_nodes=90, num_labels=8)
        assert len(graphs) == 4
        # Table 1: all PPI graphs are disconnected (module unions)
        assert all(len(g.connected_components()) > 1 for g in graphs)

    def test_ppi_family_shares_labels(self):
        graphs = ppi_like(num_graphs=4, avg_nodes=90, num_labels=8)
        alphabet = set()
        for g in graphs:
            alphabet |= g.distinct_labels()
        assert len(alphabet) <= 8

    def test_synthetic_graphs_connected(self):
        graphs = graphgen_like(num_graphs=5, avg_nodes=40, num_labels=5)
        assert all(g.is_connected() for g in graphs)

    def test_synthetic_density_regime(self):
        graphs = graphgen_like(
            num_graphs=5, avg_nodes=50, density=0.12, num_labels=5
        )
        avg_density = sum(g.density() for g in graphs) / len(graphs)
        assert 0.06 <= avg_density <= 0.2

    def test_determinism(self):
        a = ppi_like(num_graphs=3, avg_nodes=60, num_labels=8)
        b = ppi_like(num_graphs=3, avg_nodes=60, num_labels=8)
        for x, y in zip(a, b):
            assert x.same_labeled_structure(y)


class TestSummaries:
    def test_collection_summary(self):
        graphs = graphgen_like(num_graphs=4, avg_nodes=40, num_labels=5)
        s = summarize_collection(graphs)
        assert s.num_graphs == 4
        assert s.num_labels <= 5
        assert s.avg_nodes > 0
        assert s.avg_degree > 0
        rows = s.as_rows()
        assert ("# graphs", "4") in rows

    def test_graph_summary(self):
        g = yeast_like(n=150, num_labels=20)
        s = summarize_graph(g)
        assert s.num_graphs == 1
        assert s.stddev_nodes == 0.0
        assert s.avg_nodes == 150

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            summarize_collection([])


class TestRegistry:
    """:data:`repro.datasets.DATASETS` declares each dataset once; every
    roster and builder the tree uses derives from it."""

    def test_rosters_derive_from_the_table(self):
        assert NFV_DATASETS == ("yeast", "human", "wordnet")
        assert FTV_DATASETS == ("ppi", "synthetic")
        assert tuple(DATASETS) == NFV_DATASETS + FTV_DATASETS
        assert SCALES == ("default", "tiny")
        for name in NFV_DATASETS:
            assert dataset_kind(name) == "nfv"
        for name in FTV_DATASETS:
            assert dataset_kind(name) == "ftv"

    @pytest.mark.parametrize("name, expected", [
        ("yeast", lambda: [yeast_like(n=200, num_labels=24)]),
        ("human", lambda: [human_like(n=150, num_labels=12)]),
        ("wordnet", lambda: [wordnet_like(n=400)]),
        ("ppi", lambda: ppi_like(num_graphs=3, avg_nodes=60, num_labels=8)),
        ("synthetic", lambda: graphgen_like(
            num_graphs=5, avg_nodes=40, density=0.12, num_labels=5
        )),
    ])
    def test_tiny_rows_build_what_they_name(self, name, expected):
        built = build_graphs(name, "tiny")
        want = expected()
        assert len(built) == len(want)
        for g, w in zip(built, want):
            assert list(g.labels) == list(w.labels)
            assert sorted(g.edges()) == sorted(w.edges())

    def test_default_scale_is_the_builders_defaults(self):
        [g] = build_graphs("yeast")
        w = yeast_like()
        assert (g.order, g.size) == (w.order, w.size)

    def test_kind_builders_return_one_graph_or_a_collection(self):
        graph = build_nfv_graph("wordnet", "tiny")
        assert graph.order == 400
        assert len(build_ftv_graphs("ppi", "tiny")) == 3
        with pytest.raises(ValueError, match="not an NFV dataset"):
            build_nfv_graph("ppi", "tiny")
        with pytest.raises(ValueError, match="not an FTV dataset"):
            build_ftv_graphs("yeast", "tiny")

    def test_one_unknown_dataset_and_one_unknown_scale_error(self):
        for call in (
            lambda: dataset_kind("mars"),
            lambda: build_graphs("mars"),
            lambda: build_nfv_graph("mars"),
            lambda: build_ftv_graphs("mars"),
        ):
            with pytest.raises(
                ValueError,
                match=r"unknown dataset 'mars'; known: yeast, human, "
                r"wordnet, ppi, synthetic",
            ):
                call()
        with pytest.raises(
            ValueError, match="unknown scale 'giant'; known: default, tiny"
        ):
            build_graphs("yeast", "giant")

    def test_the_harness_re_exports_the_registry_objects(self):
        """``benchmarks/e2e/`` imports the roster from the harness:
        those names are the registry's objects, so they cannot
        drift."""
        import repro.datasets as datasets
        import repro.harness as harness

        for name in (
            "NFV_DATASETS", "FTV_DATASETS", "build_nfv_graph",
            "build_ftv_graphs",
        ):
            assert getattr(harness, name) is getattr(datasets, name)


def test_the_serving_package_does_not_import_the_harness():
    """A fresh interpreter's ``import repro.service`` loads no
    ``repro.harness*`` module: the serving stack reads the dataset
    roster from :mod:`repro.datasets`, not from the paper harness."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import repro.service, sys; print(sorted(m for m in "
            "sys.modules if m.startswith('repro.harness')))",
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
