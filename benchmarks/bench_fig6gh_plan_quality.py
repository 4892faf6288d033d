"""Fig. 6(g)(h): plan quality — execution (shipping) cost of compliant vs
traditional plans under sets C and CR, measured by actually executing
both plans on generated TPC-H data on the fragment scheduler.

Two cost views per plan:

* *cost* — the paper's headline metric: the simulated ``α + β·bytes``
  transfer time summed over every SHIP;
* *makespan* — the critical-path response time of the fragment schedule,
  where independent sites transfer concurrently (what Fig. 6(g,h)'s
  "response time" framing corresponds to for a real deployment).

Paper shape: identical cost (and identical plans, "=") whenever the
traditional plan is compliant; when it is not (Q2 always; Q3/Q10 under
CR), the compliant plan can be substantially more expensive — Q2's
compliant plan ships the big Supplier/Partsupp side instead of the small
restricted Part side (an 18× overhead in the paper)."""

import pytest

from repro.bench import plan_quality

SCALE = 0.01  # measured bytes scale linearly; shape is scale-free


@pytest.mark.parametrize("set_name", ["C", "CR"])
def test_fig6gh_plan_quality(report, benchmark, set_name):
    result = benchmark.pedantic(
        lambda: plan_quality(set_name, scale=SCALE), rounds=1, iterations=1
    )
    safe = set_name.replace("+", "_")
    report.emit(f"fig6gh_plan_quality_{safe}", result.table())

    expected_nc = {"C": {"Q2"}, "CR": {"Q2", "Q3", "Q10"}}[set_name]
    for row in result.rows:
        if row.query in expected_nc:
            assert row.traditional_label == "NC"
            assert not row.same_plan
        else:
            assert row.traditional_label == "C"
            # Same plan => same cost (the paper's "=" annotations).
            assert row.same_plan, row.query
            assert row.scaled_cost == pytest.approx(1.0, rel=1e-6)

        # The critical path can never exceed the sum of all transfers...
        assert row.traditional_makespan <= row.traditional_cost + 1e-9
        assert row.compliant_makespan <= row.compliant_cost + 1e-9
        # ...and is strictly below it whenever the fragment DAG contains
        # independent (concurrently transferring) fragments.
        if row.traditional_parallel_pairs > 0:
            assert row.traditional_makespan < row.traditional_cost
        if row.compliant_parallel_pairs > 0:
            assert row.compliant_makespan < row.compliant_cost

    # Q2's compliance overhead is large (ships the big compliant side).
    q2 = result.row("Q2")
    assert q2.scaled_cost > 2.0
    # At least one plan in each set actually exercises cross-site
    # parallelism (otherwise the makespan metric degenerates to the sum).
    assert any(r.compliant_parallel_pairs > 0 for r in result.rows)
