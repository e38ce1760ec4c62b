"""The policy roster: the one name -> class table every policy list derives from.

The paper's evaluation (Section 6) is one fixed roster -- NoCache, Replica,
Benefit, VCover, SOptimal.  This module is the lowest layer that knows every
one of those classes, so it is where the roster is declared, once, in report
order.  Everything else that used to restate it is computed from the table
and from one predicate on the class:

* the runner's ``DEFAULT_POLICIES`` / ``SERVABLE_POLICIES``
  (:mod:`repro.sim.runner`) and through them the CLI choices and the served
  path's refusal of offline policies,
* the :class:`~repro.sim.delta.Delta` facade's ``policy`` names.

Adding a policy is one entry here; no flag per entry, no second list.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.benefit import BenefitPolicy
from repro.core.policy import BaseCachePolicy
from repro.core.vcover import VCoverPolicy
from repro.core.yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy

#: The paper's two algorithms and three yardsticks, in report order.
POLICY_CLASSES: Dict[str, Type[BaseCachePolicy]] = {
    "nocache": NoCachePolicy,
    "replica": ReplicaPolicy,
    "benefit": BenefitPolicy,
    "vcover": VCoverPolicy,
    "soptimal": SOptimalPolicy,
}


def is_online(policy_class: Type[BaseCachePolicy]) -> bool:
    """Whether a policy decides from the events it has seen alone.

    An offline policy is one that overrides :meth:`BaseCachePolicy.prepare` to
    read the whole trace before the run; it cannot be served (the server
    has no future trace).
    """
    return policy_class.prepare is BaseCachePolicy.prepare
