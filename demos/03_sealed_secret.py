#!/usr/bin/env python3
"""What the players know when a controller withholds.

One withheld record seals the secret: the players' joint state is exactly a
maximally mixed qubit in the withheld slot, tensored with the partial trace
of the original state - it carries no information at all about the missing
qubit.  We compute that state exactly, as a product of per-slot swap
channels derived from the forced Bell-measurement branches of each swap,
and compare it to the closed-form prediction.  The sealing audit certifies
the same from the channels alone: each withheld slot's channel is the
depolarizer and each released one, after its correction, the identity, so
its bound on the trace distance, for every secret, is exactly zero.
"""

from dataclasses import replace

import numpy as np

from cqss import (
    AccessPolicy,
    RandomSource,
    Sealed,
    haar_random_state,
    no_information_audit,
    sealed_mixture,
    setup,
    trace_distance,
)

secret = haar_random_state(3, RandomSource(99))
# A policy is a value: controller 2 withholding is a new policy.
policy = replace(
    AccessPolicy.round_robin(3, 3, 3),
    release={1: True, 2: False, 3: True},  # record 2 never arrives
)

run = setup(3, 3, 3, secret, policy, RandomSource(4))
run.distribute_all()
run.transport_all()

outcome = run.reconstruct()
assert isinstance(outcome, Sealed)
print("reconstruction outcome:", outcome.reason)
print()

players_state = run.withheld_state({2})
prediction = sealed_mixture(secret, [1])
print("players' exact state vs closed-form prediction:")
print("  trace distance =", f"{trace_distance(players_state, prediction):.3e}")
print()

tensor = players_state.entries.reshape((2,) * 6)
slot2 = np.trace(np.trace(tensor, axis1=0, axis2=3), axis1=1, axis2=3)
print("reduced state of the withheld slot alone:")
print(np.round(slot2.real, 6))
print("(the maximally mixed qubit: a coin that remembers nothing)")
print()

print("audits from the per-slot channels (no matrix built):")
for withheld in ({1}, {1, 2}, {1, 2, 3}):
    audit = no_information_audit(run, withheld)
    print(f"  withheld={sorted(withheld)}: trace distance at most "
          f"{audit.distance:.3e}, pass={audit.passed}")
