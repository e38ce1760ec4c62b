"""Search for a scenario composition where one policy ships more than another.

Run from the repository root::

    python tests/find_loss.py --policy vcover --yardstick nocache --floor 200

The search is :func:`hypothesis.find` over the composition strategy of
``tests/strategies.py`` (:func:`composition_specs`, with a wider per-segment
event range).  It is derandomised and keeps no example database, so the same
three arguments always return the same case.  Hypothesis shrinks the first
loss it meets to a minimal one -- fewer segments and events, default knobs,
the smallest catalogue -- and the command prints it in the
``repro.workload.fuzz.save_composition`` file format, ready for
``load_composition`` and ``repro.api.run_scenario``.

A case is a loss when ``--policy`` ships more than :data:`LOSS_RATIO` times
the bytes ``--yardstick`` ships (``ComparisonResult.traffic_of``) and the
composition holds at least ``--floor`` queries *and* at least ``--floor``
updates.  The floor applies to each side, not to the total: with a total
floor the search shrinks to a handful of queries against a long update run
(5 + 5 queries and 5 + 985 updates for a 1 000-event floor), which is one
load no online policy can repay, not a loss worth diagnosing.

Exit status 0 prints the case; 1 means no loss was found within the budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from hypothesis import HealthCheck, find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro import api  # noqa: E402
from repro.sim.runner import DEFAULT_POLICIES  # noqa: E402
from repro.workload.fuzz import CompositionSpec  # noqa: E402
from tests.strategies import composition_specs  # noqa: E402

#: ``--policy`` loses when it ships more than this multiple of the yardstick.
LOSS_RATIO = 1.05
#: Per-segment bound on each side's events: wide enough for one segment to
#: clear the floor on its own.
MAX_EVENTS = 1000
#: Examples tried before the search gives up (shrinking steps not counted).
MAX_EXAMPLES = 200

#: Independent of whatever hypothesis profile the caller has loaded.
SEARCH_SETTINGS = settings(
    settings.get_profile("default"),
    max_examples=MAX_EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


def is_loss(spec: CompositionSpec, policy: str, yardstick: str, floor: int) -> bool:
    """The search predicate: enough events on each side, and a loss."""
    if spec.query_count < floor or spec.update_count < floor:
        return False
    comparison = api.run_scenario(spec, policies=(policy, yardstick))
    return comparison.traffic_of(policy) > LOSS_RATIO * comparison.traffic_of(yardstick)


def find_loss(policy: str, yardstick: str, floor: int) -> CompositionSpec:
    """The shrunk loss, named ``<policy>-<yardstick>``.

    Raises :class:`hypothesis.errors.NoSuchExample` when none turns up.
    """
    case = find(
        composition_specs(max_events=MAX_EVENTS),
        lambda spec: is_loss(spec, policy, yardstick, floor),
        settings=SEARCH_SETTINGS,
    )
    return dataclasses.replace(case, name=f"{policy}-{yardstick}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--policy", required=True, choices=DEFAULT_POLICIES)
    parser.add_argument("--yardstick", required=True, choices=DEFAULT_POLICIES)
    parser.add_argument(
        "--floor", required=True, type=int, help="minimum queries and minimum updates"
    )
    args = parser.parse_args(argv)
    if args.floor < 0:
        parser.error("--floor must be non-negative")
    if args.policy == args.yardstick:
        # api.run_scenario refuses a repeated policy; say so before searching.
        parser.error("--policy and --yardstick must differ")
    try:
        case = find_loss(args.policy, args.yardstick, args.floor)
    except NoSuchExample:
        print(
            f"no composition found where {args.policy} ships more than "
            f"{LOSS_RATIO}x {args.yardstick} with >= {args.floor} events a side",
            file=sys.stderr,
        )
        return 1
    # The save_composition format (tests/test_fuzz.py pins the equality).
    sys.stdout.write(json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
