"""The paper's figures and tables, each declared once.

The paper derives its whole evaluation (Tables 1-10, Figs 1-15) from
one measurement campaign per dataset.  :func:`matrix` is the one place
that picks a dataset's experiment config and measures its cost matrix;
:data:`FIGURES` maps every figure/table name to the datasets the paper
draws it on and a recipe building its tables with the drivers of
:mod:`.experiments` and :mod:`.analysis`.  ``repro experiment`` /
``datasets`` / ``analyze`` and the paper benches under ``benchmarks/``
all render from here, so a table's title, rows and variant sets are
written down once; ``docs/BENCHMARKS.md`` lists each name with its
paper figure and bench file.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

from ..datasets import (
    DATASETS,
    FTV_DATASETS,
    NFV_DATASETS,
    build_ftv_graphs,
    build_nfv_graph,
    dataset_kind,
    summarize_collection,
    summarize_graph,
)
from .analysis import hard_overlap_table, winner_attribution_table
from .config import (
    FTVExperimentConfig,
    NFVExperimentConfig,
    PSI_FTV_VARIANT_SETS,
    PSI_NFV_MULTIALG_SETS,
    PSI_NFV_REWRITING_SETS,
)
from .experiments import (
    CostMatrix,
    alt_algorithm_speedup_table,
    band_percentages_table,
    grapes_psi_by_size_table,
    killed_pct_table,
    maxmin_table,
    psi_multialg_speedup_table,
    psi_speedup_table,
    rewriting_aet_table,
    rewriting_hard_pct_table,
    rewriting_speedup_table,
    size_breakdown_table,
    stragglers_wla_table,
)
from .runner import measure_ftv_matrix, measure_nfv_matrix
from ..tables import Table

__all__ = ["FIGURES", "Figure", "matrix"]


def matrix(dataset: str, scale: str = "default") -> CostMatrix:
    """``dataset``'s cost matrix at ``scale`` (``default`` or
    ``tiny``), measured once per process: every caller shares it, so
    none may change it."""
    return _measured(dataset, scale)


#: dataset kind -> its experiment config and matrix measurement
_MEASURES = {
    "nfv": (NFVExperimentConfig, measure_nfv_matrix),
    "ftv": (FTVExperimentConfig, measure_ftv_matrix),
}


@cache
def _measured(dataset: str, scale: str) -> CostMatrix:
    config, measure = _MEASURES[dataset_kind(dataset)]
    cfg = config.tiny(dataset) if scale == "tiny" else config.default(dataset)
    return measure(cfg, scale=scale)


#: ``recipe(datasets, scale)`` -> the figure's tables for ``datasets``
Recipe = Callable[[tuple[str, ...], str], list[Table]]


@dataclass(frozen=True)
class Figure:
    """One paper figure or table.

    ``datasets`` are the ones the paper draws it on, in its order.
    Most figures are drawn per dataset, one dataset's tables after
    another, and ``repro experiment`` draws them for the first dataset
    alone; a ``joint`` figure (Tables 1, 2 and 10) puts all of its
    datasets in one table.
    """

    datasets: tuple[str, ...]
    recipe: Recipe
    joint: bool = False

    @property
    def family(self) -> tuple[str, ...]:
        """Every dataset it can be drawn for: the NFV ones, the FTV
        ones, or both, as its ``datasets`` are."""
        kinds = {dataset_kind(d) for d in self.datasets}
        return tuple(d for d, row in DATASETS.items() if row.kind in kinds)

    @property
    def default(self) -> tuple[str, ...]:
        """What ``repro experiment`` draws without ``--dataset``."""
        return self.datasets if self.joint else self.datasets[:1]

    def tables(self, *datasets: str, scale: str = "default") -> list[Table]:
        """The tables for ``datasets`` (default: the paper's)."""
        for d in datasets:
            if d not in self.family:
                raise ValueError(
                    f"draws on {', '.join(self.family)}, not {d!r}"
                )
        return self.recipe(datasets or self.datasets, scale)


def _each(draw: Callable[[str, CostMatrix], list[Table]]) -> Recipe:
    """The recipe drawing ``draw(dataset, its matrix)`` per dataset."""
    return lambda datasets, scale: [
        table for d in datasets for table in draw(d, matrix(d, scale))
    ]


def _characteristics(
    table: str, summarize: Callable[[str, str], object]
) -> Recipe:
    """Tables 1/2: one column of dataset statistics per dataset."""

    def recipe(datasets: tuple[str, ...], scale: str) -> list[Table]:
        rows = {d: dict(summarize(d, scale).as_rows()) for d in datasets}
        out = Table(
            f"{table} dataset characteristics (generated stand-ins, "
            f"{scale} scale)",
            ["statistic", *datasets],
        )
        for stat in rows[datasets[0]]:
            out.add_row(stat, *(rows[d][stat] for d in datasets))
        return [out]

    return recipe


def _stragglers(panels: dict[str, str], bands: str) -> Recipe:
    """Figs 1/2: WLA averages per band, then the band percentages."""
    return _each(lambda d, m: [
        stragglers_wla_table(
            m, f"Fig {panels[d]}: {d}, WLA-avg exec steps per band"
        ),
        band_percentages_table(
            m, f"Fig {bands}: {d}, % of easy / 2''-600'' / hard"
        ),
    ])


def _rewritings(aet: str, hard: str) -> Recipe:
    """Fig 6: per-rewriting averages, then hard percentages."""
    return _each(lambda d, m: [
        rewriting_aet_table(
            m, f"Fig {aet}: {d}, WLA-avg exec steps per rewriting"
        ),
        rewriting_hard_pct_table(
            m, f"Fig {hard}: {d}, % hard queries per rewriting"
        ),
    ])


def _maxmin(figure: str) -> Recipe:
    """Figs 3/4: (max/min) over the isomorphic instances."""
    return _each(lambda d, m: [maxmin_table(
        m, f"{figure}: {d}, (max/min)QLA over 6 isomorphic instances"
    )])


def _rewriting_speedup(figure: str) -> Recipe:
    """Figs 7/8: the speedup of the best rewriting per query."""
    return _each(lambda d, m: [rewriting_speedup_table(
        m, f"{figure}: {d}, speedup*QLA across rewritings"
    )])


def _psi_multialg(figure: str, mode: str) -> Recipe:
    """Figs 14/15: Ψ([GQL/SPA]) against each vanilla algorithm."""
    return _each(lambda d, m: [
        psi_multialg_speedup_table(
            m,
            f"Fig {figure}: {d}, Psi([GQL/SPA]) speedup*{mode.upper()} "
            f"vs vanilla {baseline}",
            PSI_NFV_MULTIALG_SETS,
            baseline=baseline,
            mode=mode,
        )
        for baseline in ("GQL", "SPA")
    ])


#: the paper's breakdown tables: Table 3 is yeast's, Table 4 human's
_BREAKDOWNS = {"yeast": "Table 3", "human": "Table 4"}

#: Fig 9's algorithm sets: yeast's with and without QuickSI (§7)
_ALT_ALGORITHM_SETS = {
    "yeast": (
        ("yeast2alg", ("GQL", "SPA")),
        ("yeast3alg", ("GQL", "SPA", "QSI")),
    ),
}
_PAIR = (("2alg", ("GQL", "SPA")),)

#: Table 10's Ψ: Grapes/1 x 4 rewritings on an FTV dataset,
#: [GQL/SPA]-[Or/DND] on an NFV one
_TABLE10_FTV = tuple(
    ("Grapes/1", rw) for rw in ("ILF", "IND", "DND", "ILF+IND")
)
_TABLE10_NFV = tuple(
    (alg, rw) for alg in ("GQL", "SPA") for rw in ("Orig", "DND")
)


def _table10(datasets: tuple[str, ...], scale: str) -> list[Table]:
    entries = []
    for d in datasets:
        m = matrix(d, scale)
        if dataset_kind(d) == "ftv":
            # the paper spells the protein dataset in capitals
            label = "PPI" if d == "ppi" else d
            entries.append((label, "Grapes/4", m, _TABLE10_FTV))
        else:
            for baseline in ("GQL", "SPA"):
                entries.append((d, baseline, m, _TABLE10_NFV))
    return [killed_pct_table(entries)]


def _observation5(d: str, m: CostMatrix) -> list[Table]:
    """Hard-set overlap, then who wins the [GQL/SPA] race and, where
    the dataset runs more algorithms, the race of all of them."""
    races = [("GQL", "SPA")]
    if m.methods != races[0]:
        races.append(m.methods)
    return [
        hard_overlap_table(
            m, f"Observation 5: {d}, hard-set overlap (Jaccard)"
        ),
        *(
            winner_attribution_table(
                m,
                [(alg, "Orig") for alg in algs],
                f"Observation 5: {d}, [{'/'.join(algs)}] race winner "
                "attribution",
            )
            for algs in races
        ),
    ]


#: Every paper figure/table by name, in the paper's order
FIGURES: dict[str, Figure] = {
    "table1": Figure(
        FTV_DATASETS,
        _characteristics(
            "Table 1: FTV",
            lambda d, s: summarize_collection(build_ftv_graphs(d, s)),
        ),
        joint=True,
    ),
    "table2": Figure(
        NFV_DATASETS,
        _characteristics(
            "Table 2: NFV",
            lambda d, s: summarize_graph(build_nfv_graph(d, s)),
        ),
        joint=True,
    ),
    "fig1": Figure(
        FTV_DATASETS,
        _stragglers({"synthetic": "1(a)", "ppi": "1(b)"}, "1(c)"),
    ),
    "fig2": Figure(
        NFV_DATASETS,
        _stragglers(
            {"yeast": "2(a)", "human": "2(b)", "wordnet": "2(c)"}, "2(d)"
        ),
    ),
    "table3": Figure(
        ("yeast", "human"),
        _each(lambda d, m: [size_breakdown_table(
            m,
            f"{_BREAKDOWNS.get(d, 'Tables 3-4')}: {d}, per-size band "
            "breakdown (smallest/largest)",
        )]),
    ),
    "fig3": Figure(FTV_DATASETS, _maxmin("Fig 3 / Table 5")),
    "fig4": Figure(NFV_DATASETS, _maxmin("Fig 4 / Table 6")),
    "fig6ftv": Figure(("ppi",), _rewritings("6(a)", "6(b)")),
    "fig6nfv": Figure(("yeast",), _rewritings("6(c)", "6(d)")),
    "fig7": Figure(FTV_DATASETS, _rewriting_speedup("Fig 7 / Table 7")),
    "fig8": Figure(NFV_DATASETS, _rewriting_speedup("Fig 8 / Table 8")),
    "fig9": Figure(
        NFV_DATASETS,
        _each(lambda d, m: [alt_algorithm_speedup_table(
            m,
            f"Fig 9 / Table 9: {d}, speedup*QLA from alternative "
            "algorithms",
            _ALT_ALGORITHM_SETS.get(d, _PAIR),
        )]),
    ),
    "fig10": Figure(
        FTV_DATASETS,
        _each(lambda d, m: [psi_speedup_table(
            m, f"Fig 10: {d}, Psi speedup*QLA (FTV variant sets)",
            PSI_FTV_VARIANT_SETS,
        )]),
    ),
    "fig11": Figure(
        FTV_DATASETS,
        _each(lambda d, m: [psi_speedup_table(
            m, f"Fig 11: {d}, Psi speedup*WLA (FTV variant sets)",
            PSI_FTV_VARIANT_SETS, mode="wla",
        )]),
    ),
    "fig12": Figure(
        ("ppi",),
        _each(lambda d, m: [grapes_psi_by_size_table(
            m,
            f"Fig 12: {d}, Grapes/4 vs Psi(Grapes/1 x "
            "ILF/IND/DND/ILF+IND), WLA-avg steps by query size",
        )]),
    ),
    "fig13": Figure(
        NFV_DATASETS,
        _each(lambda d, m: [psi_speedup_table(
            m, f"Fig 13: {d}, Psi speedup*QLA (Orig + rewritings)",
            PSI_NFV_REWRITING_SETS,
        )]),
    ),
    "fig14": Figure(NFV_DATASETS, _psi_multialg("14", "qla")),
    "fig15": Figure(NFV_DATASETS, _psi_multialg("15", "wla")),
    "table10": Figure(("ppi",) + NFV_DATASETS, _table10, joint=True),
    "obs5": Figure(NFV_DATASETS, _each(_observation5)),
}
