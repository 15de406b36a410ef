"""DBMS scenario: the sample as a deferred materialized view (Sec. 5).

A base table receives a mixed insert/update/delete workload.  The sample
view never touches the table after creation -- it sees only the change
stream, exactly as the paper requires ("access to the base data is
disallowed at any time").  Deletions force full logging; updates are
queued in a separate update log and applied after each refresh.

The DBMS's own staging table (the paper's nod to DB2 staging tables and
Oracle materialized-view logs) records the same changes, showing that the
full log the refresh needs is something the database already maintains.

Run:  python examples/dbms_view.py
"""

from repro import CostModel, LogFile, RandomSource, SimulatedBlockDevice, StackRefresh
from repro.analysis.query import SampleQuery
from repro.core.policies import PeriodicPolicy
from repro.dbms import SampleView, StagingTable, Table
from repro.dbms.staging import ChangeRecordCodec


def main() -> None:
    rng = RandomSource(seed=5)
    cost = CostModel()

    # -- base table with 5 000 orders (key -> order value in cents) --------
    table = Table("orders")
    for key in range(5_000):
        table.insert(key, 100 + (key * 37) % 900)

    staging = StagingTable(
        table, LogFile(SimulatedBlockDevice(cost, "staging"), ChangeRecordCodec())
    )
    view = SampleView(
        table,
        sample_size=500,
        rng=rng,
        algorithm=StackRefresh(),
        cost_model=cost,
        allow_deletes=True,             # deletions force full logging (Sec. 5)
        policy=PeriodicPolicy(2_000),   # deferred refresh every 2 000 changes
    )
    print(f"view created: {view.sample_size} of {len(table)} rows sampled")

    # -- mixed workload ------------------------------------------------------
    next_key = 5_000
    for day in range(5):
        for _ in range(1_500):                       # new orders
            table.insert(next_key, 100 + (next_key * 37) % 900)
            next_key += 1
        for key in range(day * 300, day * 300 + 300):  # old orders purged
            table.delete(key)
        for key in range(day * 100 + 2000, day * 100 + 2100):  # corrections
            table.update(key, 50)
    view.refresh()

    inserts, updates, deletes = staging.pending()
    print(f"staging table pending since last drain: "
          f"{inserts} inserts, {updates} updates, {deletes} deletes")
    print(f"view refreshes         : {view.refreshes}")
    print(f"view sample size now   : {view.sample_size} "
          f"(shrunk by deletions, per Sec. 5)")
    print(f"dataset size tracked   : {view.dataset_size} "
          f"(table actually holds {len(table)})")

    # -- consistency spot-checks --------------------------------------------
    live = {row.key: row.value for row in table.rows()}
    mismatches = sum(
        1 for row in view.rows()
        if row.key not in live or live[row.key] != row.value
    )
    print(f"rows in view that disagree with the table: {mismatches}")

    # -- estimate total order value from the sample --------------------------
    sampled_values = [row.value for row in view.rows()]
    total = SampleQuery(sampled_values, dataset_size=len(table)).sum()
    truth = sum(live.values())
    error = abs(total.value - truth) / truth
    print(f"estimated total value  : {total.value:,.0f} cents "
          f"[{total.low:,.0f}, {total.high:,.0f}] "
          f"(true {truth:,} , error {error:.1%})")


if __name__ == "__main__":
    main()
