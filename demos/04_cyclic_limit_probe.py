"""Cyclic limit of absorption probabilities for large starting populations.

As the starting total nbar grows, q(n -> r) approaches a period-1 function
of log_delta(nbar).  The probe evaluates the exact limiting absorption along
a geometric grid of totals, pairs each total with its partner one period
away (round(nbar / delta)), and reports the self-similarity defect, the
uniform lower bound theta, and a basis-amplitude fit.  Writes the probe
table to cyclic_probe.csv next to this script.
"""

import pathlib

import numpy as np

import stopbp

HERE = pathlib.Path(__file__).resolve().parent
MODELS = HERE.parent / "models"


def main():
    model, stopping = stopbp.load_model((MODELS / "m1.json").read_text())
    r = stopbp.parse_state("[2]")
    grid = [int(x) for x in np.unique(np.round(np.geomspace(60, 240, 8)))]
    print(f"probing totals {grid}")

    probe = stopbp.periodicity_probe(model, stopping, r, a=[1.0], nbar_grid=grid)
    print("\n nbar   frac(log_delta nbar)        q        defect vs partner")
    for row in probe.main_rows():
        print(f"  {row.nbar:>4}   {row.x_frac:.4f}              "
              f"{row.q:.10f}   {row.defect:.2e}")
    print(f"\ntheta (min q over probe) = {probe.theta:.6f} > 0")

    summary = stopbp.perron_triple(stopbp.moments(model))
    stopbp.survival_constants(model, 60, summary)
    cyclic = stopbp.build_cyclic_model(summary, [1.0], stopping)
    print(f"weighted survival constant aK = {cyclic.aK:.6f}; "
          f"{cyclic.r0} basis functions")

    fit = stopbp.fit_cyclic_amplitudes(probe, cyclic)
    print(f"fitted amplitudes {np.round(fit.amplitudes, 6)} "
          f"(rms residual {fit.rms_residual:.2e})")
    print("fitted limit function across one period:")
    for x in np.linspace(0.0, 0.9, 4):
        value, bound = cyclic.evaluate(float(x))
        print(f"  H({x:.2f}) = {value:.8f} +- {bound:.1e}")

    out = HERE / "cyclic_probe.csv"
    with open(out, "w") as fh:
        probe.write_csv(fh)
    print(f"\nprobe table written to {out}")


if __name__ == "__main__":
    main()
