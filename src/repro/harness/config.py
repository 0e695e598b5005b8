"""Experiment configuration: datasets, workloads, thresholds, variants.

Scales are chosen so the full benchmark suite completes in minutes of
pure Python while preserving the paper's regimes.  The ``tiny()``
constructors give second-scale configs for the test suite;
:func:`repro.harness.figures.matrix` is what picks one or the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics import Thresholds

__all__ = [
    "NFV_ALGORITHMS",
    "FTV_METHODS",
    "PAPER_REWRITINGS",
    "RANDOM_INSTANCES",
    "WorkloadSpec",
    "NFVExperimentConfig",
    "FTVExperimentConfig",
    "PSI_FTV_VARIANT_SETS",
    "PSI_NFV_REWRITING_SETS",
    "PSI_NFV_MULTIALG_SETS",
]

#: NFV algorithms per dataset, as run in the paper (§3.4: QuickSI only
#: on yeast).
NFV_ALGORITHMS: dict[str, tuple[str, ...]] = {
    "yeast": ("GQL", "SPA", "QSI"),
    "human": ("GQL", "SPA"),
    "wordnet": ("GQL", "SPA"),
}

#: FTV methods per dataset (§3.4: GGSX not run on the synthetic set).
FTV_METHODS: dict[str, tuple[str, ...]] = {
    "synthetic": ("Grapes/1", "Grapes/4"),
    "ppi": ("Grapes/1", "Grapes/4", "GGSX"),
}

#: The five proposed rewritings (§6), in presentation order.
PAPER_REWRITINGS: tuple[str, ...] = (
    "ILF", "IND", "DND", "ILF+IND", "ILF+DND",
)

#: Six random isomorphic instances per query (§5).
RANDOM_INSTANCES: tuple[str, ...] = tuple(f"RND{i}" for i in range(6))


@dataclass(frozen=True)
class WorkloadSpec:
    """Queries per size for one dataset."""

    sizes: tuple[int, ...]
    queries_per_size: int
    seed: int = 42


@dataclass(frozen=True)
class NFVExperimentConfig:
    """One NFV dataset's full experiment setup."""

    dataset: str
    workload: WorkloadSpec
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_embeddings: int = 1000
    #: Override the paper's per-dataset algorithm roster (used by the
    #: portfolio-extension benches, e.g. adding TurboISO).
    algorithms_override: tuple[str, ...] | None = None

    @property
    def algorithms(self) -> tuple[str, ...]:
        """The NFV algorithms run on this dataset."""
        if self.algorithms_override is not None:
            return self.algorithms_override
        return NFV_ALGORITHMS[self.dataset]

    @classmethod
    def default(cls, dataset: str) -> "NFVExperimentConfig":
        """Benchmark-scale config (paper sizes 10..32 scaled to 8..24).

        The easy threshold is per-dataset: bigger stored graphs have a
        higher unavoidable filtering floor (candidate-list probes scale
        with the graph), just as the paper's per-dataset easy AETs
        differ (yeast ~67 ms vs human ~180 ms vs wordnet more).
        """
        easy = {"yeast": 2_000, "human": 8_000, "wordnet": 10_000}
        qps = {"yeast": 8, "human": 6, "wordnet": 6}
        return cls(
            dataset=dataset,
            workload=WorkloadSpec(
                sizes=(8, 16, 24), queries_per_size=qps.get(dataset, 6)
            ),
            thresholds=Thresholds(
                easy_steps=easy.get(dataset, 2_000),
                budget_steps=200_000,
            ),
        )

    @classmethod
    def tiny(cls, dataset: str) -> "NFVExperimentConfig":
        """Test-scale config (seconds)."""
        return cls(
            dataset=dataset,
            workload=WorkloadSpec(sizes=(4,), queries_per_size=4),
            thresholds=Thresholds(easy_steps=500, budget_steps=20_000),
        )


@dataclass(frozen=True)
class FTVExperimentConfig:
    """One FTV dataset's full experiment setup."""

    dataset: str
    workload: WorkloadSpec
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_path_length: int = 3

    @property
    def methods(self) -> tuple[str, ...]:
        """The FTV methods run on this dataset."""
        return FTV_METHODS[self.dataset]

    @classmethod
    def default(cls, dataset: str) -> "FTVExperimentConfig":
        """Benchmark-scale config (paper sizes 16..40 scaled to 10..24)."""
        sizes = {
            "ppi": (12, 16, 20, 24),
            "synthetic": (10, 14, 18),
        }
        qps = {"ppi": 3, "synthetic": 4}
        return cls(
            dataset=dataset,
            workload=WorkloadSpec(
                sizes=sizes.get(dataset, (10, 14, 18)),
                queries_per_size=qps.get(dataset, 4),
            ),
            thresholds=Thresholds(easy_steps=2_000, budget_steps=100_000),
        )

    @classmethod
    def tiny(cls, dataset: str) -> "FTVExperimentConfig":
        """Test-scale config (seconds)."""
        return cls(
            dataset=dataset,
            workload=WorkloadSpec(sizes=(5,), queries_per_size=3),
            thresholds=Thresholds(easy_steps=500, budget_steps=20_000),
        )


#: Ψ-FTV variant sets, as in Fig. 10/11 (each entry: label, rewritings).
PSI_FTV_VARIANT_SETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Psi(ILF/ILF+IND)", ("ILF", "ILF+IND")),
    ("Psi(ILF/ILF+DND)", ("ILF", "ILF+DND")),
    ("Psi(ILF/IND/DND)", ("ILF", "IND", "DND")),
    ("Psi(ILF/IND/DND/ILF+IND)", ("ILF", "IND", "DND", "ILF+IND")),
    ("Psi(all_rewritings)", PAPER_REWRITINGS),
    ("Psi(Or/all_rewritings)", ("Orig",) + PAPER_REWRITINGS),
)

#: Ψ-NFV rewriting-only variant sets, as in Fig. 13.
PSI_NFV_REWRITING_SETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Psi(Or/ILF/ILF+IND)", ("Orig", "ILF", "ILF+IND")),
    ("Psi(Or/ILF/IND/DND)", ("Orig", "ILF", "IND", "DND")),
    (
        "Psi(Or/ILF/IND/DND/ILF+IND)",
        ("Orig", "ILF", "IND", "DND", "ILF+IND"),
    ),
    ("Psi(all)", ("Orig",) + PAPER_REWRITINGS),
)

#: Ψ-NFV multi-algorithm sets, as in Fig. 14/15: (label, rewritings);
#: the algorithms are always GQL and SPA, crossed with each rewriting.
PSI_NFV_MULTIALG_SETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Psi([GQL/SPA]-[Or])", ("Orig",)),
    ("Psi([GQL/SPA]-[ILF])", ("ILF",)),
    ("Psi([GQL/SPA]-[IND])", ("IND",)),
    ("Psi([GQL/SPA]-[DND])", ("DND",)),
    ("Psi([GQL/SPA]-[Or/DND])", ("Orig", "DND")),
)
