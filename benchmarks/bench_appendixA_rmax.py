"""Appendix A: computing the maximum data rate R_max.

Benchmarks the Dinkelbach solve itself, regenerates the precomputed
R_max_i table of Section 7, and validates the certified bound against an
empirical covert-channel simulation and against the fixed strategies of
the Section 5.3.1 example.
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.attacks.channel_sim import CovertChannelSimulator
from repro.core.covert import CovertChannelModel, uniform_delay
from repro.core.dinkelbach import solve_rmax
from repro.core.rates import RmaxTable
from repro.harness.runconfig import SCALED
from repro.schemes.untangle import (
    clear_rate_table_cache,
    default_channel_model,
    get_rate_table,
)


def test_rmax_solve(benchmark, results_dir):
    model = default_channel_model(SCALED.cooldown)

    def run():
        return solve_rmax(model, inner_iterations=1000)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    uniform_rate = model.rate(model.uniform_input())
    text = (
        "Appendix A: maximum covert-channel data rate (T_c = 1 scaled ms)\n"
        f"  R'_max (achieved):      {result.rate * SCALED.cooldown:.4f} bits/T_c\n"
        f"  R'_max (certified UB):  {result.rate_upper_bound * SCALED.cooldown:.4f} bits/T_c\n"
        f"  bits per transmission:  {result.bits_per_transmission:.3f}\n"
        f"  avg transmission time:  {result.average_transmission_time / SCALED.cooldown:.2f} T_c\n"
        f"  uniform-input rate:     {uniform_rate * SCALED.cooldown:.4f} bits/T_c\n"
        f"  converged={result.converged} bound_verified={result.bound_verified}"
    )
    write_result(results_dir, "appendixA_rmax", text)

    assert result.converged and result.bound_verified
    # The optimized input beats the naive uniform strategy.
    assert result.rate >= uniform_rate
    # And the certificate is tight (within ~25% of the achieved rate).
    assert result.rate_upper_bound <= result.rate * 1.25


def test_rmax_table_generation(benchmark, results_dir):
    def run():
        clear_rate_table_cache()
        return get_rate_table(SCALED.cooldown)

    table: RmaxTable = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Section 7: precomputed R_max_i table (rates in bits per T_c)"]
    for entry in table.entries():
        lines.append(
            f"  m={entry.maintains:3d}  T'_c={entry.effective_cooldown // SCALED.cooldown:3d} T_c"
            f"  rate={entry.rate_upper_bound * SCALED.cooldown:8.4f}"
            f"  bits/tx={entry.bits_per_transmission:6.3f}"
        )
    write_result(results_dir, "appendixA_rmax_table", "\n".join(lines))

    rates = [e.rate_upper_bound for e in table.entries()]
    # Rates strictly decrease with the effective cooldown (Section 5.3.4).
    assert all(b < a for a, b in zip(rates, rates[1:]))
    # The decay is roughly 1/(m+1): entry 7's rate is ~1/8 of entry 0's,
    # modulo the slow logarithmic growth of bits per transmission.
    level_7 = table.entry(7).rate_upper_bound
    assert level_7 < 0.3 * rates[0]


def test_empirical_channel_respects_bound(benchmark, results_dir):
    """No simulated sender strategy beats the certified R'_max."""
    model = CovertChannelModel(
        cooldown=64, resolution=4, max_duration=256, delay=uniform_delay(64, 4)
    )
    solution = solve_rmax(model, inner_iterations=400)

    def run():
        rows = []
        rng = np.random.default_rng(0)
        strategies = {
            "optimal": solution.input_distribution,
            "uniform": model.uniform_input(),
        }
        for i in range(3):
            strategies[f"random{i}"] = rng.dirichlet(np.ones(model.num_inputs))
        for name, p in strategies.items():
            simulator = CovertChannelSimulator(model, seed=42)
            outcome = simulator.transmit(p, 3_000)
            rows.append((name, outcome.empirical_rate, outcome.decode_accuracy))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Empirical covert-channel rates vs certified bound "
        f"(bound = {solution.rate_upper_bound * 64:.3f} bits/T_c)"
    ]
    for name, rate, accuracy in rows:
        lines.append(
            f"  {name:10s} rate={rate * 64:7.3f} bits/T_c  decode={accuracy:.2f}"
        )
    write_result(results_dir, "appendixA_empirical", "\n".join(lines))
    for name, rate, _ in rows:
        assert rate <= solution.rate_upper_bound * 1.5, name
