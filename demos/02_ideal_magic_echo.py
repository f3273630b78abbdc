#!/usr/bin/env python3
"""Time-reversal echoes on a six-spin cluster, ideal and finite-field.

Three experiments on the same [100] cluster:

  * the original magic echo on transverse order: free decay for tau, a
    phase-alternated burst of length 2 tau, then acquisition. With the
    exact reversed evolution the curve replays the free induction decay
    from its peak.
  * sequence 1 (dipolar order, 90-degree pulse, burst, delay, 45-degree
    read pulse): the double-quantum-borne echo amplitude is independent
    of the burst length and equals (1/4) max|G'| in the ideal limit.
  * sequence 2 (45-degree pulse first): twice the sequence-1 amplitude.

Finite burst strength spoils the reversal at second order; the last
section shows the amplitude drifting below the ideal as t1 grows.
"""

import numpy as np

from magicecho import experiments
from magicecho.lattice import GAMMA_F19, build_cluster, local_field


def main():
    cluster = build_cluster("100", radius=1.0, max_sites=6)
    wl = local_field(cluster)
    gp = experiments.max_abs_fid_derivative(cluster)
    print(f"six-spin [100] cluster: omega_L = {wl:.4e} rad/s, "
          f"max|G'| = {gp:.4e} 1/s")

    omega1 = 10.0 * wl
    echo = experiments.rpw_magic_echo(cluster, omega1, 1.0e-5,
                                      ideal_reversal=True)
    fid = experiments.fid_values(cluster, echo.times)
    print(f"\nideal magic echo: peak {echo.values.max():.9f} at the burst "
          f"end, max |echo - fid| = {np.abs(echo.values - fid).max():.2e}")

    print("\nideal sequence-1 amplitude vs burst length (flat by identity):")
    for t1 in (0.0, 1.0e-5, 2.5e-5, 4.0e-5):
        amp = experiments.sequence1_amplitude(cluster, omega1, t1,
                                              ideal_reversal=True)
        print(f"  t1 = {t1 * 1e6:5.1f} us   amplitude = {amp:.6e}"
              f"   / max|G'| = {amp / gp:.9f}")

    amp1 = experiments.sequence1_amplitude(cluster, omega1, 1.0e-5,
                                           ideal_reversal=True)
    amp2 = experiments.sequence2_amplitude(cluster, omega1, 1.0e-5,
                                           ideal_reversal=True)
    print(f"\nideal sequence-2 amplitude = {amp2:.6e}"
          f"   ratio seq2/seq1 = {amp2 / amp1:.9f}")

    print(f"\nfinite burst omega_1 = 10 omega_L "
          f"({omega1 / GAMMA_F19:.1f} G), snapped grid:")
    for count in (2, 8, 16, 24):
        t1 = count * np.pi / omega1
        amp = experiments.sequence1_amplitude(cluster, omega1, t1)
        print(f"  t1 = {count:2d} half-cycles ({t1 * 1e6:6.2f} us)   "
              f"amplitude / ideal = {amp / amp1:.4f}")


if __name__ == "__main__":
    main()
