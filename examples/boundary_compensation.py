#!/usr/bin/env python
"""Boundary tags: the paper's §6 future work, implemented.

Tag 9 of Fig. 2(a) sits slightly outside the reference grid and shows
the worst accuracy — plain VIRE (like LANDMARC) can only ever output a
point inside the convex hull of its candidates. This example compares
plain VIRE with the BoundaryAwareEstimator, which detects edge-crowded
eliminations and re-estimates on a virtual lattice extrapolated one
physical cell beyond the real grid.

Run:  python examples/boundary_compensation.py
"""

from __future__ import annotations

from repro import (
    BOUNDARY_TAGS,
    NON_BOUNDARY_TAGS,
    BoundaryAwareEstimator,
    LandmarcEstimator,
    VIREConfig,
    VIREEstimator,
    paper_scenario,
    run_scenario,
)
from repro.utils.ascii import format_table

N_TRIALS = 12


def main() -> None:
    scenario = paper_scenario("Env3", n_trials=N_TRIALS, base_seed=0)
    config = VIREConfig(target_total_tags=900)
    estimators = [
        LandmarcEstimator(),
        VIREEstimator(scenario.grid, config),
        BoundaryAwareEstimator(scenario.grid, config, extension_cells=1),
    ]
    result = run_scenario(scenario, estimators)

    names = ["LANDMARC", "VIRE", "VIRE+boundary"]
    rows = []
    for tag in sorted(scenario.tracking_tags):
        row = [tag, "boundary" if tag in BOUNDARY_TAGS else "interior"]
        row.extend(result.by_name(n).tag_means()[tag] for n in names)
        rows.append(row)
    print(
        format_table(
            ["Tag", "kind", *names],
            rows,
            title=f"per-tag mean error (m), Env3, {N_TRIALS} trials",
        )
    )

    print("\ngroup means (m):")
    for group, tags in (("interior", NON_BOUNDARY_TAGS),
                        ("boundary", BOUNDARY_TAGS)):
        vals = [result.by_name(n).summary(tags=tags).mean for n in names]
        print(
            f"  {group:9s} " +
            "  ".join(f"{n}={v:.3f}" for n, v in zip(names, vals))
        )

    plain9 = result.by_name("VIRE").tag_means()[9]
    aware9 = result.by_name("VIRE+boundary").tag_means()[9]
    print(
        f"\nTag 9 (outside the grid): plain VIRE {plain9:.3f} m vs "
        f"boundary-aware {aware9:.3f} m "
        f"({100 * (1 - aware9 / plain9):+.0f}% change)"
    )


if __name__ == "__main__":
    main()
