"""Absorption probabilities by three independent routes.

Loads the two-type example model, builds the exact transition kernel on a
capped state space, and computes the probability of being absorbed at the
stopping state (1,0) from a few starting populations -- by the stopped
chain, by the stop-coefficient expansion, and by summing first-passage
probabilities.  The three columns must agree to near machine precision.
"""

import pathlib

import numpy as np

import stopbp

HERE = pathlib.Path(__file__).resolve().parent
MODEL = HERE.parent / "models" / "m2.json"


def main():
    model, stopping = stopbp.load_model(MODEL.read_text())
    print(f"model: {len(model.type_names)} types; stopping set "
          f"{[m.label() for m in stopping]}")

    space = stopbp.enumerate_states(model.k, cap=60)
    kernel = stopbp.one_step_kernel(model, space)
    print(f"state space: {space.n_states} states (cap {space.cap}) "
          f"+ overflow sentinel")

    t_max = 15
    restricted = stopbp.restricted_kernel(kernel, stopping, t_max)
    coeffs = stopbp.stop_coefficients(restricted)
    r = stopping.sorted_members()[0]

    starts = [stopbp.parse_state(s) for s in ("[0,1]", "[0,2]", "[2,0]", "[3,3]")]
    print(f"\nq(n -> {r.label()}, t): direct | formula | first-passage sum")
    for n in starts:
        for t in (1, 5, 15):
            d = stopbp.absorb_direct(kernel, stopping, n, r, t)
            f = stopbp.absorb_via_formula(kernel, coeffs, n, r, t)
            p = stopbp.absorb_via_restricted(restricted, n, r, t)
            print(f"  n={n.label():>6} t={t:>2}: {d:.12f} | {f:.12f} | {p:.12f}"
                  f"   (spread {max(d, f, p) - min(d, f, p):.1e})")

    # infinite-horizon values: the stopped chain read at each start's
    # horizon, with the geometric bound on what can still be absorbed later
    summary = stopbp.perron_triple(stopbp.moments(model))
    limits = stopbp.limiting_absorptions(kernel, stopping, summary, starts, r, tol=1e-12)
    print("\nlimiting values (with tail bound):")
    for n, res in zip(starts, limits):
        print(f"  n={n.label():>6}: q = {res.value:.12f} +- {res.tail_bound:.1e} "
              f"({res.terms} steps, overflow {res.overflow_mass:.1e})")

    # Monte Carlo cross-check of one entry
    n = starts[1]
    est = stopbp.estimate_absorption(n, r, stopping, model, 15, 200_000, seed=1)
    exact = stopbp.absorb_direct(kernel, stopping, n, r, 15)
    print(f"\nMonte Carlo check at n={n.label()}, t=15: "
          f"{est.value:.5f} +- {est.stderr:.5f} vs exact {exact:.5f} "
          f"({abs(est.value - exact) / est.stderr:.2f} sigma)")


if __name__ == "__main__":
    main()
