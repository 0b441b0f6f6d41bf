"""Ellipse tracking demo.

Runs the tilted-ellipse experiment twice -- once with the true mass and
inertia handed to the controller, once with the adaptive estimator starting
from a deliberately wrong guess -- and prints the summary metrics side by
side. Telemetry for both runs is written next to this script as CSV so it
can be plotted with any external tool.
"""

import os

import numpy as np

from bicopterlab import SimConfig, simulate, summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def run(label: str, cfg: SimConfig) -> None:
    ts = simulate(cfg)
    met = summarize(ts)
    out = os.path.join(HERE, f"ellipse_{label}.csv")
    ts.to_csv(out)

    t = ts.column("t")
    err = np.hypot(ts.column("pos_err1"), ts.column("pos_err2"))
    print(f"--- {label} parameters ---")
    for line in met.lines():
        print(f"  {line}")
    print(f"  max position error after 2 s: {err[t > 2.0].max():.5f} m")
    print(f"  telemetry: {out}")
    print()


def main() -> None:
    print("Tilted ellipse (a=5 m, b=3 m, 45 deg, omega=1 rad/s), 20 s runs.\n")

    # Controller knows m = 1 kg, J = 0.05 kg m^2 exactly.
    run("known", SimConfig(adaptive=False, theta0=(1.0, 20.0)))

    # Controller starts believing the vehicle is half as heavy and twice
    # as agile (theta_hat = (2, 10)); the estimator corrects it online.
    run("adaptive", SimConfig())

    print("The adaptive run recovers the mass within the first second and")
    print("tracks almost as tightly as the known-parameter run; the inertia")
    print("estimate improves only slowly because the ellipse demands very")
    print("little torque (weak excitation of the second regressor channel).")


if __name__ == "__main__":
    main()
