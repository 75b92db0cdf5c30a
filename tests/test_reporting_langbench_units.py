"""Reporting helpers, the Fig.-1 language model, and unit utilities."""

import numpy as np
import pytest

from repro.langbench import (
    LANGUAGE_PROFILES,
    efficiency_table,
    language_efficiency,
    nbody_reference_work,
)
from repro.reporting import render_breakdown, render_series, render_table
from repro.units import (
    format_energy,
    format_frequency,
    format_time,
    megajoules,
    mhz,
    to_mhz,
)


def test_render_table_alignment():
    out = render_table(
        ["name", "value"], [["a", 1.0], ["bbbb", 123456.0]], title="T"
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_render_table_row_width_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])


def test_render_series_merges_x():
    out = render_series(
        {"s1": {1: 10.0}, "s2": {1: 20.0, 2: 30.0}}, x_label="n"
    )
    assert "s1" in out and "s2" in out
    assert out.splitlines()[-1].startswith("2")


def test_render_breakdown_sorted():
    out = render_breakdown({"CPU": 10.0, "GPU": 75.0, "Other": 15.0})
    lines = out.splitlines()
    assert lines[2].startswith("GPU")


def test_nbody_reference_work_positive_and_scales():
    small = nbody_reference_work(n_bodies=64, steps=2)
    large = nbody_reference_work(n_bodies=128, steps=2)
    assert large > 3.5 * small  # ~quadratic in N


def test_language_efficiency_fig1_shape():
    work = 1e18  # a production-sized N-body run
    results = language_efficiency(work)
    by_name = {r.language: r for r in results}
    cuda = by_name["CUDA"]
    cpp = by_name["C++"]
    python = by_name["Python (pure)"]
    # CUDA is roughly an order of magnitude more energy-efficient than
    # C++ (paper Fig. 1 / Portegies Zwart 2020).
    assert 5.0 < cpp.energy_j / cuda.energy_j < 50.0
    # Interpreted Python is far worse than everything compiled.
    assert python.energy_j > 20.0 * cpp.energy_j
    assert python.time_s > cpp.time_s
    # Faster usually correlates with greener here.
    assert cuda.time_s < cpp.time_s


def test_efficiency_table_ranked_by_energy():
    table = efficiency_table(language_efficiency(1e17))
    energies = [row["energy_j"] for row in table.values()]
    assert energies == sorted(energies)
    assert len(table) == len(LANGUAGE_PROFILES)


def test_unit_formatting():
    assert format_energy(12.3) == "12.30 J"
    assert format_energy(12_300) == "12.30 kJ"
    assert format_energy(12_300_000) == "12.30 MJ"
    assert format_time(0.25) == "250.0 ms"
    assert format_time(90.0) == "1.50 min"
    assert format_time(2e-5) == "20.0 us"
    assert format_frequency(mhz(1410)) == "1410 MHz"
    assert to_mhz(mhz(123.0)) == 123.0
    assert megajoules(2.5e6) == 2.5
