#!/usr/bin/env python3
"""Locality diagnostics: dress sigma_0^x with the exponential time filter,
record commutator decay against distant probes, and compress the dressed
operator onto growing leading regions.
"""

import argparse
import math

import numpy as np

import qfibounds as q
from qfibounds.locality import (
    DressSpec,
    commutator_decay_profile,
    dressed_operator,
    local_approximation,
)
from qfibounds.operators import FlipOperator
from qfibounds.spectral import eigendecompose


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-sites", type=int, default=10)
    ap.add_argument("--gamma", type=float, default=0.4 * math.pi)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=None, help="default pi/beta")
    ap.add_argument("--probe", choices=("X", "Y", "Z"), default="Z")
    args = ap.parse_args()

    mu = args.mu if args.mu is not None else math.pi / args.beta
    H, _ = q.tfim_operators(q.ModelSpec(args.n_sites, args.gamma))
    eigs = eigendecompose(H)
    d = 1 << args.n_sites
    a_loc = FlipOperator(np.zeros(d), ((d >> 1, 1.0),))  # sigma^x_0, site 0 the top bit

    profile = commutator_decay_profile(eigs, a_loc, DressSpec(mu=mu), args.probe)
    print(f"mu = {mu:.4f}, probe = sigma^{args.probe.lower()}")
    for r, norm in zip(profile.distances, profile.commutator_norms):
        print(f"  r = {int(r):2d}  ||[L, probe]|| = {norm:.6e}")
    print(f"fitted decay rate lambda = {profile.fitted_rate:.4f} "
          f"(r^2 = {profile.fit_r2:.6f})")

    dressed = dressed_operator(eigs, a_loc, DressSpec(mu=mu))
    print("local approximation onto leading k sites:")
    for k in range(2, min(args.n_sites, 7)):
        la = local_approximation(dressed, k, n_random_probes=2)
        print(
            f"  k = {k}: err = {la.err:.3e}, 2 eps_hat = {2 * la.eps_hat:.3e} "
            f"(max probe {la.max_probe})"
        )


if __name__ == "__main__":
    main()
