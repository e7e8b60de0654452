"""Batched greeks: five sensitivities from one engine workload.

A trading desk rarely wants just prices — hedging needs delta, gamma,
theta, vega and rho for every position.  The classical lattice trick
(Hull) reads delta/gamma/theta off tree levels 0..2 of the *same*
backward pass that prices the option; vega and rho come from
bump-and-reprice central differences.  ``repro.greeks`` batches the
whole thing through the pricing engine: one fused task per chunk rolls
the level-captured base contracts and their four bump variants
together.

This example:

1. generates a book of American options,
2. computes all five greeks in one ``repro.greeks`` call,
3. cross-checks a few positions against the scalar oracle
   (``lattice_greeks``) and against central differences of the
   reference pricer,
4. aggregates book-level exposures the way a risk report would,
5. shows the run's stats — including the bump-pass counters.

Run:  python examples/greeks_study.py
"""

from dataclasses import replace

import repro
from repro.finance import price_binomial
from repro.finance.greeks import lattice_greeks

STEPS = 128  # keep the example quick; production depth would be 512+


def main() -> None:
    book = list(repro.generate_batch(n_options=300, seed=20140324).options)
    print(f"Book: {len(book)} American options, N={STEPS}")

    # -- 2. one call, five greeks per option -------------------------------
    result = repro.greeks(book, steps=STEPS, kernel="iv_b", workers=None)
    print(f"\nFirst three positions (spot/strike -> greeks):")
    for i in range(3):
        o = book[i]
        print(f"  {o.option_type.value:4s} S={o.spot:7.2f} K={o.strike:7.2f}"
              f"  price={result.prices[i]:8.4f} delta={result.delta[i]:+.4f}"
              f" gamma={result.gamma[i]:.4f} theta={result.theta[i]:+.4f}"
              f" vega={result.vega[i]:.4f} rho={result.rho[i]:+.4f}")

    # -- 3a. scalar oracle: same lattice trick, one option at a time -------
    worst = 0.0
    for i in (0, len(book) // 2, len(book) - 1):
        oracle = lattice_greeks(book[i], steps=STEPS)
        worst = max(
            worst,
            abs(result.delta[i] - oracle.delta),
            abs(result.gamma[i] - oracle.gamma),
            abs(result.theta[i] - oracle.theta),
            abs(result.vega[i] - oracle.vega),
            abs(result.rho[i] - oracle.rho),
        )
    print(f"\nEngine vs scalar lattice_greeks oracle: "
          f"worst |diff| = {worst:.2e}")
    assert worst <= 1e-9

    # -- 3b. sanity vs bump-and-reprice of the reference pricer ------------
    o = book[0]
    h = o.spot * 1e-4
    fd_delta = (
        price_binomial(replace(o, spot=o.spot + h), STEPS).price
        - price_binomial(replace(o, spot=o.spot - h), STEPS).price
    ) / (2 * h)
    print(f"Position 0 delta: lattice {result.delta[0]:+.6f} vs "
          f"spot-bump FD {fd_delta:+.6f} "
          f"(diff {abs(result.delta[0] - fd_delta):.1e})")

    # -- 4. book-level exposures -------------------------------------------
    print("\nBook aggregates (sum over positions):")
    print(f"  net delta : {result.delta.sum():+10.2f}")
    print(f"  net gamma : {result.gamma.sum():+10.4f}")
    print(f"  net theta : {result.theta.sum():+10.2f} per year")
    print(f"  net vega  : {result.vega.sum():+10.2f} per vol point")
    print(f"  net rho   : {result.rho.sum():+10.2f} per rate point")

    # -- 5. the run's stats know about the bump passes ---------------------
    stats = result.stats
    print(f"\nRun stats: {stats.options} tree pricings "
          f"({stats.greeks_options} options x 5 passes), "
          f"{stats.bump_passes} bump passes, {stats.chunks} chunks, "
          f"{stats.options_per_second:,.0f} pricings/s")


if __name__ == "__main__":
    main()
