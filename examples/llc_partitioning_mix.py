#!/usr/bin/env python3
"""Run one full evaluation mix: the paper's headline experiment.

Simulates a paper workload mix (default: Mix 1 of Figure 10) on the
8-core scaled machine under all four Table 4 schemes and prints the
figure panels: normalized IPC, leakage per assessment, and partition-size
distributions.

Run:  python examples/llc_partitioning_mix.py [mix_id] [--quick]

``--quick`` runs a reduced 2-workload mix (~1 s) instead of the full
8-workload mix (~4 s), serial, on a 2-vCPU Xeon host.
"""

import sys

from repro.harness.experiment import run_custom_mix, run_mix
from repro.harness.figures import figure_group
from repro.harness.report import render_figure_group
from repro.harness.runconfig import SCALED, TEST


def main(argv: list[str]) -> None:
    mix_id = 1
    quick = "--quick" in argv
    positional = [a for a in argv if not a.startswith("-")]
    if positional:
        mix_id = int(positional[0])

    if quick:
        print("Quick mode: 2-workload mini mix at the TEST profile")
        result = run_custom_mix(
            [("parest_0", "AES-128"), ("imagick_0", "SHA-256")],
            TEST,
        )
        for scheme in ("time", "untangle", "shared"):
            print(f"\n{scheme}: geomean speedup over static = "
                  f"{result.geomean_speedup(scheme):.3f}")
            for label, value in result.normalized_ipc(scheme).items():
                print(f"  {label:24s} {value:.3f}")
        for scheme in ("time", "untangle"):
            run = result.runs[scheme]
            print(f"{scheme}: {run.mean_bits_per_assessment:.2f} bits/assessment "
                  f"(maintain fraction {run.maintain_fraction:.2f})")
        return

    print(f"Running paper Mix {mix_id} under Static/Time/Untangle/Shared "
          "(this takes a few seconds)...")
    result = run_mix(mix_id, SCALED)
    group = figure_group(mix_id, SCALED, mix_result=result)
    print()
    print(render_figure_group(group))

    time_bits = result.runs["time"].mean_bits_per_assessment
    untangle_bits = result.runs["untangle"].mean_bits_per_assessment
    reduction = 1 - untangle_bits / time_bits
    print(f"\nUntangle leaks {reduction:.0%} less per assessment than Time "
          "(paper headline: 78% on average across mixes).")


if __name__ == "__main__":
    main(sys.argv[1:])
