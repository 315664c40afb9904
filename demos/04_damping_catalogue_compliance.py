# Tour of the damping catalogue: every member comes with sector constants
# (C1, C2) and a comparison function h, and the compliance checker states
# the local-Lipschitz constant, monotonicity and the sector inequality's
# normalized margin exactly, with no random draws.  The weak (sublinear)
# damping is the deliberate edge case: it has no Lipschitz constant at zero,
# its sector margin is -inf, and the checker fails and flags it instead of
# papering over it.

import numpy as np

from lyapcert import damping

catalogue = [
    ("linear", damping.linear()),
    ("norm saturation (s0=1)", damping.norm_saturation(1.0)),
    ("clamp (s0=1)", damping.clamp(1.0)),
    ("tanh (s0=1)", damping.tanh_saturation(1.0)),
    ("arctan (s0=1)", damping.arctan_saturation(1.0)),
]

print(f"{'kind':26s} {'C1':>5s} {'C2':>5s} {'Lipschitz':>12s} {'sector min':>12s} pass")
for name, spec in catalogue:
    rep = damping.verify_definition(spec)
    ok = rep.item1_pass and rep.item2_pass and rep.item3_pass
    print(f"{name:26s} {spec.C1:5.2f} {spec.C2:5.2f} "
          f"{rep.lipschitz_constant:12.3e} {rep.sector_margin:12.3e} {ok}")

print("\nsaturation behavior on a sample vector:")
s = np.array([0.3, -0.8, 2.5, -4.0])
for name, spec in catalogue:
    print(f"  {name:26s} sigma(s) = {np.round(spec.apply(s), 4)}")

print("\nweak damping sigma(s) = c sign(s) |s|^q with q = 1/2:")
wd = damping.weak_damping(c=1.0, q=0.5)
rep = damping.verify_definition(wd)
print(rep.text_block())

print("\nh(x) = x^(q-1) on a log grid (decreasing, singular at 0):")
for x in (1e-4, 1e-2, 1.0, 1e2):
    print(f"  h({x:8.0e}) = {wd.h_eval(x):10.3f}")
