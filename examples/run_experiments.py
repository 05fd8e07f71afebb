#!/usr/bin/env python3
"""Regenerate every experiment table from DESIGN.md in one run.

This is the human-readable companion to the pytest-benchmark files: it
sweeps the canonical grids (B1–B3), runs the structural experiments
(B4, B5, B7, B8, B9) and prints the tables EXPERIMENTS.md records.

Run:  python examples/run_experiments.py            # full (~2-4 min)
      python examples/run_experiments.py B1 B4      # selected experiments
      REPRO_BENCH_SCALE=0.2 python examples/...     # subsampled quick look
"""

import sys
import time

from repro.bench import GRIDS, format_table, run_support_sweep, scaled_db, time_call
from repro.core.mining import mine_frequent_itemsets
from repro.core.plt import PLT


FIGURES_DIR = "figures"


def run_grid(name: str) -> None:
    from pathlib import Path

    from repro.bench import sweep_to_svg

    g = GRIDS[name]
    db = scaled_db(g.dataset)
    sweep = run_support_sweep(
        f"{g.experiment}: {g.description} [{g.dataset}, {len(db)} tx]",
        db,
        g.methods,
        g.supports,
        max_len=g.max_len,
        method_kwargs=g.method_kwargs,
    )
    print(sweep.render())
    Path(FIGURES_DIR).mkdir(exist_ok=True)
    path = sweep_to_svg(sweep, Path(FIGURES_DIR) / f"{g.experiment}_{g.dataset}.svg")
    print(f"figure written to {path}\n")


def run_b4() -> None:
    """Structure sizes: PLT vs FP-tree vs raw data, across densities."""
    from repro.baselines.fptree import FPTree
    from repro.compress import encoded_size_report

    rows = []
    for dataset in ("T10.I4.D5K", "ZIPF-200", "DENSE-50"):
        db = scaled_db(dataset)
        min_support = max(1, int(0.01 * len(db)))
        plt = PLT.from_transactions(db, min_support)
        tree = FPTree.from_transactions(db, min_support)
        sizes = encoded_size_report(plt)
        stats = plt.stats()
        rows.append(
            (
                dataset,
                f"{db.density():.3f}",
                str(stats.n_vectors),
                f"{stats.compression_ratio:.1f}",
                str(tree.n_nodes()),
                str(sizes["plain"]),
                str(sizes["gzip"]),
                str(sizes["raw_dat_estimate"]),
            )
        )
    print("== B4: structure size (min_support = 1%) ==")
    print(
        format_table(
            rows,
            (
                "dataset",
                "density",
                "plt_vectors",
                "agg_ratio",
                "fp_nodes",
                "plt_bytes",
                "plt_gzip",
                "raw_bytes",
            ),
        ),
        "\n",
    )


def run_b5() -> None:
    """Subset-checking microbenchmark: position vectors vs frozensets."""
    import random

    from repro.core import position

    rng = random.Random(0)
    n_items = 200
    pairs = []
    for _ in range(4000):
        sup = sorted(rng.sample(range(1, n_items + 1), rng.randint(5, 25)))
        if rng.random() < 0.5:
            sub = sorted(rng.sample(sup, rng.randint(1, min(5, len(sup)))))
        else:
            sub = sorted(rng.sample(range(1, n_items + 1), rng.randint(1, 5)))
        pairs.append((position.encode(sub), position.encode(sup)))
    set_pairs = [
        (frozenset(position.decode(a)), frozenset(position.decode(b))) for a, b in pairs
    ]

    def vector_check() -> int:
        return sum(1 for a, b in pairs if position.is_subvector(a, b))

    def merge_check() -> int:
        return sum(1 for a, b in pairs if position.is_subvector_merge(a, b))

    def set_check() -> int:
        return sum(1 for a, b in set_pairs if a <= b)

    t_vec, hits_v = time_call(vector_check, repeat=5)
    t_merge, hits_m = time_call(merge_check, repeat=5)
    t_set, hits_s = time_call(set_check, repeat=5)
    assert hits_v == hits_m == hits_s
    print("== B5: subset checking, 4000 queries ==")
    print(
        format_table(
            [
                ("position two-pointer", f"{t_vec * 1e3:.2f}"),
                ("position merge-based", f"{t_merge * 1e3:.2f}"),
                ("frozenset <=", f"{t_set * 1e3:.2f}"),
            ],
            ("checker", "ms"),
        ),
        "\n",
    )


def run_b7() -> None:
    """Parallel speedup: measured pool wall time + LPT makespan model.

    On a single-core host (this repo's reference container) measured
    speedup cannot exceed 1; the makespan model — per-task CPU times
    binned by LPT — shows what a k-core machine would see.
    """
    from repro.core.columns import RankColumns
    from repro.core.conditional import mine_conditional_paths
    from repro.parallel import conditional_tasks, lpt_partition, mine_parallel

    db = scaled_db("T10.I4.D10K")
    min_support = max(1, int(0.002 * len(db)))
    plt = PLT.from_transactions(db, min_support)
    base, serial = time_call(lambda: sorted(mine_parallel(plt, min_support, n_workers=1)))
    tasks = conditional_tasks(plt, min_support)
    per_task = []
    for t in tasks:
        secs, _ = time_call(
            mine_conditional_paths, t.prefixes, t.rank, min_support, RankColumns()
        )
        per_task.append(secs)
    total = sum(per_task)
    rows = [("1", f"{base:.2f}", "1.00", f"{total:.2f}", "1.00")]
    for workers in (2, 4, 8):
        secs, result = time_call(
            lambda w=workers: sorted(mine_parallel(plt, min_support, n_workers=w))
        )
        assert result == serial
        bins = lpt_partition(
            list(range(len(tasks))), [int(s * 1e6) for s in per_task], workers
        )
        makespan = max(sum(per_task[i] for i in b) for b in bins if b)
        rows.append(
            (
                str(workers),
                f"{secs:.2f}",
                f"{base / secs:.2f}",
                f"{makespan:.2f}",
                f"{total / makespan:.2f}",
            )
        )
    import os

    print(f"== B7: parallel conditional mining (host CPUs: {os.cpu_count()}) ==")
    print(
        format_table(
            rows,
            ("workers", "wall_s", "measured_x", "makespan_s", "model_x"),
        ),
        "\n",
    )


def run_b8() -> None:
    """Codec throughput and sizes."""
    from repro.compress import deserialize_plt, serialize_plt

    db = scaled_db("T10.I4.D10K")
    plt = PLT.from_transactions(db, max(1, int(0.002 * len(db))))
    t_enc, blob = time_call(serialize_plt, plt, repeat=3)
    t_dec, plt2 = time_call(deserialize_plt, blob, repeat=3)
    assert plt2.vectors() == plt.vectors()
    t_gz, blob_gz = time_call(serialize_plt, plt, repeat=3, gzip=True)
    print("== B8: PLT codec ==")
    print(
        format_table(
            [
                ("varint", str(len(blob)), f"{t_enc * 1e3:.1f}", f"{t_dec * 1e3:.1f}"),
                ("varint+gzip", str(len(blob_gz)), f"{t_gz * 1e3:.1f}", "-"),
            ],
            ("codec", "bytes", "encode_ms", "decode_ms"),
        ),
        "\n",
    )


def run_b9() -> None:
    """Construction time: PLT vs FP-tree."""
    from repro.baselines.fptree import FPTree

    rows = []
    for dataset in ("T10.I4.D5K", "DENSE-50"):
        db = scaled_db(dataset)
        min_support = max(1, int(0.01 * len(db)))
        t_plt, _ = time_call(PLT.from_transactions, db, min_support, repeat=3)
        t_fp, _ = time_call(FPTree.from_transactions, db, min_support, repeat=3)
        rows.append((dataset, f"{t_plt:.3f}", f"{t_fp:.3f}"))
    print("== B9: construction time (seconds) ==")
    print(format_table(rows, ("dataset", "plt_build", "fptree_build")), "\n")


def run_b10() -> None:
    """Rule generation counts and throughput vs confidence."""
    from repro.rules import rules_from_result

    db = scaled_db("T10.I4.D5K")
    result = mine_frequent_itemsets(db, 0.01, method="plt")
    rows = []
    for conf in (0.9, 0.7, 0.5):
        secs, rules = time_call(rules_from_result, result, conf, repeat=3)
        rows.append((f"{conf:.1f}", str(len(rules)), f"{secs * 1e3:.1f}"))
    print(f"== B10: rule generation from {len(result)} itemsets ==")
    print(format_table(rows, ("min_conf", "#rules", "ms")), "\n")


SPECIALS = {"B4": run_b4, "B5": run_b5, "B7": run_b7, "B8": run_b8, "B9": run_b9, "B10": run_b10}


def main() -> None:
    wanted = sys.argv[1:] or (list(GRIDS) + list(SPECIALS))
    start = time.perf_counter()
    for name in wanted:
        if name in GRIDS:
            run_grid(name)
        elif name in SPECIALS:
            SPECIALS[name]()
        else:
            raise SystemExit(f"unknown experiment {name!r}")
    print(f"total: {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
