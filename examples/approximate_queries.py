"""Approximate warehouse queries over a deferredly-maintained join synopsis.

The end-to-end story the paper's introduction sketches: a warehouse fact
table too large to scan per query, a bounded disk-resident synopsis kept
current by deferred maintenance, and ad-hoc queries answered from the
synopsis with confidence intervals.

Schema: ``sales(id, product_id)`` joined to ``products(product_id,
unit_price)``.  The join synopsis (Acharya et al., cited as [10] in the
paper) keeps a uniform sample of the join; a price correction on the
dimension side flows through the Sec. 5 update-log pattern.

Queries run over columns: the synopsis rows become one numpy array per
field, an aggregate reads the price column, and a filter is a mask over
any column of the same rows.

Run:  python examples/approximate_queries.py
"""

import numpy as np

from repro import CostModel, PeriodicPolicy, RandomSource, StackRefresh
from repro.analysis.query import SampleQuery
from repro.dbms import JoinSynopsis, Table

PRODUCTS = 50
INITIAL_SALES = 20_000
NEW_SALES = 30_000
SYNOPSIS_SIZE = 2_000


def price_of(product_id: int) -> int:
    return 500 + (product_id * 137) % 4500  # cents


def main() -> None:
    rng = RandomSource(seed=21)
    products = Table("products")
    for p in range(PRODUCTS):
        products.insert(p, price_of(p))
    sales = Table("sales")
    for s in range(INITIAL_SALES):
        sales.insert(s, s % PRODUCTS)

    synopsis = JoinSynopsis(
        sales, products, sample_size=SYNOPSIS_SIZE, rng=rng,
        algorithm=StackRefresh(), cost_model=CostModel(),
        policy=PeriodicPolicy(5_000),
    )
    print(f"synopsis: {SYNOPSIS_SIZE} of {INITIAL_SALES} sales rows, joined")

    # The warehouse keeps loading; a price correction lands mid-stream.
    for s in range(INITIAL_SALES, INITIAL_SALES + NEW_SALES):
        sales.insert(s, (s * 13) % PRODUCTS)
    products.update(7, 99)  # big markdown on product 7
    synopsis.refresh()

    rows = synopsis.rows()
    product = np.array([row.fact_value for row in rows])
    price = np.array([row.dim_value for row in rows])
    q = SampleQuery(price, dataset_size=synopsis.fact_table_size)

    # Q1: total revenue.
    revenue = q.sum()
    true_revenue = sum(
        (99 if row.value == 7 else price_of(row.value)) for row in sales.rows()
    )
    print(f"Q1 total revenue : {revenue}  (true {true_revenue:,})")

    # Q2: how many sales of premium products (price > 40.00)?
    premium = q.where(lambda p: p > 4000).count()
    true_premium = sum(
        1 for row in sales.rows()
        if (99 if row.value == 7 else price_of(row.value)) > 4000
    )
    print(f"Q2 premium sales : {premium}  (true {true_premium:,})")

    # Q3: average price of product 7's sales -- reflects the markdown.
    # The mask comes from the product column, aligned with the prices.
    marked_down = q.where(lambda _: product == 7)
    print(f"Q3 product-7 rows in synopsis: {marked_down.matching_rows}; "
          f"avg price {marked_down.avg().value:.0f} "
          f"(exact 99 after the markdown)")

    for label, estimate, truth in (
        ("Q1", revenue, true_revenue),
        ("Q2", premium, true_premium),
    ):
        inside = estimate.low <= truth <= estimate.high
        print(f"  {label}: truth inside the 95% interval: {inside}, "
              f"relative half-width {estimate.relative_half_width:.1%}")


if __name__ == "__main__":
    main()
