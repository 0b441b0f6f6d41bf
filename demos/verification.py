"""Numeric verification demo.

Re-derives the controller's structural claims without trusting the closed
forms: the relative degree of both outputs is 4 (input influence first
appears in the 4th output derivative, and its sensitivity matrix is beta),
pole placement reproduces the published gain magnitudes, and along a
known-parameter closed-loop run the logged tracking error follows the exact
solution of the placed error dynamics, expm(A t) applied to its start.
"""

import numpy as np

from bicopterlab import PlantParams, SimConfig
from bicopterlab.linearizer import lie_relative_degree_check
from bicopterlab.tracker import brunovsky_matrices, place_gains
from bicopterlab.verify import run_verification


def report_lines(report):
    """The relative-degree report as stable key: value lines."""
    for k in range(3):
        yield f"lower_order_max_k{k}: {report.lower_order_max[k]:.6e}"
    for i in range(2):
        for j in range(2):
            yield f"k3_matrix_{i+1}{j+1}: {report.k3_matrix[i][j]:.10e}"
            yield f"beta_{i+1}{j+1}: {report.beta_matrix[i][j]:.10e}"
    yield f"k3_rel_err: {report.k3_rel_err:.6e}"
    yield f"passed: {str(report.passed).lower()}"


def main() -> None:
    print("1. Relative-degree probe at a generic flight state")
    print("   (finite differences of drift flows, no symbolic math):\n")
    chi = (0.4, -0.2, 0.3, 0.1, -0.5, 0.8, 9.81, 0.6)
    report = lie_relative_degree_check(chi, PlantParams())
    for line in report_lines(report):
        print(f"   {line}")

    print("\n2. Pole placement at (-4.5, -4, -5, -5.5):\n")
    k = place_gains((-4.5, -4.0, -5.0, -5.5))
    print(f"   gain magnitudes: {tuple(abs(g) for g in k)}")
    A, B = brunovsky_matrices()
    eigs = np.sort_complex(np.linalg.eigvals(A + B @ np.kron(np.eye(2), k)))
    print(f"   closed-loop eigenvalues: {np.round(eigs.real, 9)}")

    print("\n3. Full oracle suite (also available as `bicopterlab verify`):\n")
    ok = run_verification(SimConfig(), emit=lambda s: print(f"   {s}"))
    print(f"\n   overall: {'all checks passed' if ok else 'FAILED'}")


if __name__ == "__main__":
    main()
