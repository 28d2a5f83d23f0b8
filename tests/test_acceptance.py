"""Acceptance suite: every quantitative claim at its stated tolerance.

Each test runs one self-verification check at full size (seed 42) and
prints a PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see the table. The final test covers the qualitative surface datasets
through their minimum locations and byte-level determinism.
"""

import numpy as np
import pytest

from rfsq import build_figure, verify

CRITERIA = [
    ("1 maximal-squeezing family", verify.check_maximal_family),
    ("2 quarter-phase point check", verify.check_quarter_phase_point),
    ("3 detuned in-phase minimum", verify.check_detuned_inphase_minimum),
    ("4 moderate-N in-phase minimum", verify.check_moderate_n_inphase_minimum),
    ("5 input-squeezing benchmark", verify.check_input_benchmark_degree),
    ("6 amplification crossover", verify.check_amplification_crossover),
    ("7 pure-state variance law", verify.check_pure_variance_law),
    ("8 relaxation-oracle equivalence", verify.check_relaxation_oracle),
    ("9 phase-optimality property", verify.check_phase_optimality),
    ("10 photon-number certification", verify.check_photon_number_certification),
]


def _run(label, check):
    ok, detail = check(seed=42, fast=False)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {label}: {detail}")
    assert ok, f"criterion {label}: {detail}"


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(label, check):
    _run(label, check)


def test_surface_datasets_cover_qualitative_figures(tmp_path):
    # minimum location of the quarter-quadrature surface
    columns, _ = build_figure(6)
    k = int(np.argmin(columns["s_pi4"]))
    ok = (abs(columns["omega"][k] - 0.612) <= 0.01
          and abs(columns["delta"][k] - 0.25) <= 0.01)
    # byte-level determinism of an emitted dataset
    from rfsq import emit_figure

    first = emit_figure(6, tmp_path / "a.csv")["csv"].read_bytes()
    second = emit_figure(6, tmp_path / "b.csv")["csv"].read_bytes()
    ok = ok and first == second
    print(f"[{'PASS' if ok else 'FAIL'}] surface datasets: minimum at "
          f"(omega={columns['omega'][k]:.3f}, delta={columns['delta'][k]:.3f}), "
          f"deterministic={first == second}")
    assert ok


@pytest.mark.parametrize("seed", [101, 102])
def test_phase_optimality_on_low_coherence_seeds(seed):
    # these seeds draw states with coherence^2 below 1e-8, where a search
    # on the full variance loses the phase to rounding in 1 + <sz>
    ok, detail = verify.check_phase_optimality(seed=seed, fast=False)
    assert ok, detail
