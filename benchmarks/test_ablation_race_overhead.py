"""Ablation — sensitivity of Ψ gains to thread spawn/sync overhead.

The paper (§8) caps the useful number of racing threads by noting that
"the instantiation and synchronization of many threads come with a
non-trivial overhead".  This ablation sweeps the overhead model and
shows the QLA speedup of the all-rewritings Ψ set degrading as each
racing thread gets more expensive — and the bigger variant sets
degrading *faster* (they pay overhead per variant).
"""

from conftest import publish

from repro.harness import Table, psi_speedup_table
from repro.psi import OverheadModel

SWEEP = (0, 32, 256, 2048, 16384)


def test_overhead_sweep(matrix, benchmark):
    m = matrix("yeast")
    sets = [
        ("Psi(Or/ILF)", ("Orig", "ILF")),
        (
            "Psi(all)",
            ("Orig", "ILF", "IND", "DND", "ILF+IND", "ILF+DND"),
        ),
    ]
    benchmark(
        lambda: psi_speedup_table(
            m, "bench", sets, overhead=OverheadModel()
        )
    )
    table = Table(
        "Ablation: Psi speedup*QLA (GQL, yeast) vs per-thread overhead",
        ["overhead steps/variant", "Psi(Or/ILF) 2thr", "Psi(all) 6thr"],
    )
    series: dict[str, list[float]] = {label: [] for label, _ in sets}
    for over in SWEEP:
        t = psi_speedup_table(
            m, "x", sets,
            overhead=OverheadModel(per_variant_steps=over),
        )
        row = [over]
        for label, _ in sets:
            idx = [r[0] for r in t.rows].index(label)
            value = t.rows[idx][t.columns.index("GQL")]
            series[label].append(value)
            row.append(value)
        table.add_row(*row)
    publish(table)
    # gains must degrade monotonically-ish with overhead
    for label, values in series.items():
        assert values[0] >= values[-1], label
    # the 6-thread set pays 3x the per-variant overhead of the 2-thread
    # set: at the extreme it must have lost at least as much ground
    loss_small = series["Psi(Or/ILF)"][0] - series["Psi(Or/ILF)"][-1]
    loss_big = series["Psi(all)"][0] - series["Psi(all)"][-1]
    assert loss_big >= loss_small * 0.5
