"""Issue-stage oracle fixture: generation and shared plumbing.

``issue_stage_oracle.json`` pins the full result payload of every
launch in a grid that covers each way the SM's issue stage can run:
the four :mod:`tests.sim.test_cycle_skip` kernels, one or two warp
schedulers, round-robin, greedy-then-oldest or a seeded schedule,
obs off or ``"metrics"``, and Warped-DMR off or at the paper's default.
Every cell is launched twice on one freshly built program, so its
first launch records control flow and its second replays it
(:mod:`repro.sim.replay`); the fixture keeps both digests.  A digest is
the SHA-256 of :meth:`KernelResult.to_payload` (obs included) in
canonical JSON.  :mod:`tests.sim.test_issue_stage_oracle` holds the
current code to it.

Regenerate (only after an *intentional* change to issue timing, stats
or obs output) with::

    PYTHONPATH=src python -m tests.sim.issue_stage_oracle

and review the JSON diff like source.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from typing import Dict, List, Tuple

from repro.common.config import (DMRConfig, GPUConfig, LaunchConfig,
                                 SchedulerPolicy)
from repro.sim.gpu import GPU, KernelResult
from repro.sim.memory import GlobalMemory

from tests.sim.test_cycle_skip import KERNELS

FIXTURE_PATH = pathlib.Path(__file__).with_name("issue_stage_oracle.json")

#: scheduler variants: policy and schedule seed
SCHEDULES = {
    "rr": (SchedulerPolicy.ROUND_ROBIN, None),
    "gto": (SchedulerPolicy.GREEDY_THEN_OLDEST, None),
    "seed7": (SchedulerPolicy.ROUND_ROBIN, 7),
}
SCHEDULER_COUNTS = (1, 2)
OBS_MODES = ("off", "metrics")
DMR_MODES = ("off", "paper")


def cells() -> List[Tuple[str, int, str, str, str]]:
    """Every ``(kernel, schedulers, schedule, obs, dmr)`` cell."""
    return list(itertools.product(sorted(KERNELS), SCHEDULER_COUNTS,
                                  SCHEDULES, OBS_MODES, DMR_MODES))


def cell_id(cell) -> str:
    kernel, schedulers, schedule, obs, dmr = cell
    return f"{kernel}/sched{schedulers}/{schedule}/obs-{obs}/dmr-{dmr}"


def payload_digest(result) -> str:
    """SHA-256 of the result's payload in canonical JSON."""
    text = json.dumps(result.to_payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def launch_cell(cell) -> List[KernelResult]:
    """The cell's two launches of one program: record, then replay."""
    kernel, schedulers, schedule, obs, dmr = cell
    build, geometry = KERNELS[kernel]
    policy, seed = SCHEDULES[schedule]
    config = GPUConfig(num_sms=2, num_schedulers=schedulers,
                       scheduler=policy, schedule_seed=seed, engine="fast")
    dmr_config = (DMRConfig.paper_default() if dmr == "paper"
                  else DMRConfig.disabled())
    program = build()
    launch = LaunchConfig(grid_dim=geometry["grid"],
                          block_dim=geometry["block"])
    results = []
    for _ in range(2):
        gpu = GPU(config, dmr=dmr_config,
                  obs="metrics" if obs == "metrics" else False)
        results.append(gpu.launch(program, launch, memory=GlobalMemory()))
    return results


def load_fixture() -> Dict[str, List[str]]:
    with open(FIXTURE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    fixture = {cell_id(cell): [payload_digest(result)
                               for result in launch_cell(cell)]
               for cell in cells()}
    lines = [f"{json.dumps(key)}: {json.dumps(fixture[key])}"
             for key in sorted(fixture)]
    with open(FIXTURE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(fixture)} cells to {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
