"""Bench: regenerate Fig 16 (8-AP large-scale simulation)."""

from conftest import experiment_runner, report, run_once

run = experiment_runner("fig16")


def test_fig16_eight_ap(benchmark):
    result = run_once(benchmark, run, n_topologies=12, seed=0, rounds_per_topology=12)
    gain = result.gain("midas", "cas")
    report(
        result,
        "Fig 16: DAS > CAS by more than 150% in the paper's 60x60 m region; "
        f"measured {gain:+.0%}.  Our CAS baseline retains honest 802.11 "
        "cell reuse at this density, which narrows the gap.",
    )
    assert gain > 0.05
