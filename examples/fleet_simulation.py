#!/usr/bin/env python3
"""Fleet simulation: 100 heterogeneous harvesting nodes in lock-step.

The single-node example (``energy_neutral_node.py``) closes the
prediction -> duty-cycle loop for one mote; this one scales it to a
deployment.  A 100-node fleet is spread across three sites and cycles
through three predictors, three controller policies and three storage
sizes, then the whole fleet is stepped through every slot boundary at
once by :func:`~repro.parallel.fleet.run_fleet_blocks` -- array state
instead of 100 Python loops, with elementwise-identical results.

The output answers fleet-scale questions a per-node run cannot: which
fraction of the deployment browns out, how unequal the achieved duty is
across sites, and which node is worst.

Run:  python examples/fleet_simulation.py
"""

from repro.experiments.fleet import fleet_result_table
from repro.metrics import format_fleet_summary, summarise_fleet
from repro.parallel.fleet import FleetPlan, run_fleet_blocks

PLAN = FleetPlan(
    n_nodes=100,
    sites=("SPMD", "HSU", "PFCI"),             # steady / variable / sunny
    n_days=60,
    predictors=("wcma", "ewma", "persistence"),
    controllers=("kansal", "minvar", "oracle"),
    capacities=(250.0, 400.0, 4000.0),         # two supercaps and a battery
    n_slots=48,
)


def main() -> None:
    print(
        f"Building a {PLAN.n_nodes}-node fleet: sites {', '.join(PLAN.sites)}; "
        f"predictors {', '.join(PLAN.predictors)}; "
        f"controllers {', '.join(PLAN.controllers)}; "
        f"{PLAN.n_days} days at N={PLAN.n_slots}\n"
    )
    aggregate, stats = run_fleet_blocks(PLAN)

    print(fleet_result_table(aggregate, PLAN).render())
    print()
    print(format_fleet_summary(summarise_fleet(aggregate)))

    node_slots = aggregate.n_nodes * aggregate.total_slots
    print(
        f"\nthroughput: {node_slots:,} node-slots in {stats.elapsed_s:.2f}s "
        f"({node_slots / stats.elapsed_s:,.0f} node-slots/sec)"
    )

    # Any node of the fleet can still be inspected on its own -- here,
    # the worst brown-out node.
    worst = int(aggregate.downtime_fraction.argmax())
    node = aggregate.node_summary(worst)
    print(
        f"\nworst node ({node['name']}): "
        f"duty {node['mean_duty'] * 100:.1f}%, "
        f"downtime {node['downtime_fraction'] * 100:.2f}%, "
        f"final SoC {node['final_soc'] * 100:.1f}%"
    )


if __name__ == "__main__":
    main()
