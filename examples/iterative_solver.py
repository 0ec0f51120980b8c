"""Sparse iterative solvers accelerated by SMASH.

Section 5.2.1 of the paper lists sparse iterative solvers among the
operations that SMASH's ISA can accelerate, because they spend nearly all of
their time in repeated sparse matrix-vector products. This example builds a
diagonally dominant sparse linear system, solves it with Jacobi and with
Conjugate Gradient, and compares the CSR-based and SMASH-based runs: the
solutions are identical, the iteration counts match, and the modeled cost
shifts in SMASH's favour exactly as it does for the standalone SpMV kernel.

Run with::

    python examples/iterative_solver.py
"""

import numpy as np

from repro.core import SMASHConfig
from repro.sim import SimConfig
from repro.solvers import (
    conjugate_gradient_solve,
    diagonally_dominant_system,
    jacobi_solve,
)


def main() -> None:
    matrix, b = diagonally_dominant_system(128, seed=2024, clustered=True, bandwidth=4)
    sim = SimConfig.scaled(16)
    print(f"System: {matrix.rows}x{matrix.cols}, {matrix.nnz} non-zeros "
          f"({matrix.sparsity_percent:.2f}% dense)")

    # One bitmap level over 4-element blocks suits this banded system.
    config = SMASHConfig((4,))
    print(f"SMASH configuration: {config.label()}")
    print()

    reference = np.linalg.solve(matrix.to_dense(), b)

    print(f"{'solver':22s} {'scheme':10s} {'iters':>6s} {'instructions':>13s} "
          f"{'cycles':>11s} {'max error':>10s}")
    for solver_name, solver in (("Jacobi", jacobi_solve), ("Conjugate Gradient", conjugate_gradient_solve)):
        results = {}
        for scheme in ("taco_csr", "smash_hw"):
            results[scheme] = solver(
                matrix, b, scheme,
                smash_config=config, sim_config=sim,
            )
        for scheme, result in results.items():
            error = float(np.max(np.abs(result.solution - reference)))
            print(
                f"{solver_name:22s} {scheme:10s} {result.iterations:>6d} "
                f"{result.report.total_instructions:>13d} {result.report.cycles:>11.0f} "
                f"{error:>10.2e}"
            )
        speedup = results["smash_hw"].report.speedup_over(results["taco_csr"].report)
        print(f"{'':22s} -> SMASH speedup over CSR: {speedup:.2f}x")
    print()
    print("Both solvers reach the same solution under every scheme; because")
    print("the solve is SpMV-bound, the kernel-level benefit of SMASH carries")
    print("over to the end-to-end application, as argued in Section 5.2.1.")


if __name__ == "__main__":
    main()
