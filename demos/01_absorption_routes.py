"""Absorption probabilities by three independent routes.

Loads the two-type example model, builds the exact transition kernel on a
capped state space, and computes the probability of being absorbed at the
stopping state (1,0) from a few starting populations -- by the stopped
chain, by the stop-coefficient expansion, and by summing first-passage
probabilities -- in one ``absorption_table`` call, the table behind
``stopbp stop-prob``.  The three columns must agree to near machine
precision.  The limiting values come from the cap-free series behind
``stopbp series``.
"""

import pathlib

import stopbp
from stopbp import exact_engine

HERE = pathlib.Path(__file__).resolve().parent
MODEL = HERE.parent / "models" / "m2.json"
ROUTES = ("direct", "formula", "restricted")


def main():
    model, stopping = stopbp.load_model(MODEL.read_text())
    print(f"model: {len(model.type_names)} types; stopping set "
          f"{[m.label() for m in stopping]}")

    space = stopbp.enumerate_states(model.k, cap=60)
    kernel = stopbp.one_step_kernel(model, space)
    print(f"state space: {space.n_states} states (cap {space.cap}) "
          f"+ overflow sentinel")

    r = stopping.sorted_members()[0]
    starts = [stopbp.parse_state(s) for s in ("[0,1]", "[0,2]", "[2,0]", "[3,3]")]
    t_list = (1, 5, 15)
    table = exact_engine.absorption_table(kernel, stopping, starts, r, t_list)
    q = {(row.n, row.t, row.method): row.q for row in table.rows}
    print(f"\nq(n -> {r.label()}, t): direct | formula | first-passage sum")
    for n in starts:
        for t in t_list:
            d, f, p = (q[n, t, method] for method in ROUTES)
            print(f"  n={n.label():>6} t={t:>2}: {d:.12f} | {f:.12f} | {p:.12f}"
                  f"   (spread {max(d, f, p) - min(d, f, p):.1e})")

    # infinite-horizon values from the cap-free series, with the rigorous
    # bound on what is still absorbed after each start's horizon
    summary = stopbp.perron_triple(stopbp.moments(model))
    limits = exact_engine.series_absorptions(model, stopping, summary, starts, r, tol=1e-12)
    print("\nlimiting values (with tail bound):")
    for n, res in zip(starts, limits):
        print(f"  n={n.label():>6}: q = {res.value:.12f} +- {res.tail_bound:.1e} "
              f"({res.terms} steps)")

    # Monte Carlo cross-check of one entry of the table
    n = starts[1]
    est = stopbp.estimate_absorption(n, r, stopping, model, 15, 200_000, seed=1)
    exact = q[n, 15, "direct"]
    print(f"\nMonte Carlo check at n={n.label()}, t=15: "
          f"{est.value:.5f} +- {est.stderr:.5f} vs exact {exact:.5f} "
          f"({abs(est.value - exact) / est.stderr:.2f} sigma)")


if __name__ == "__main__":
    main()
