"""The contracts of ``pinchlab verify`` and their headroom.

``CONTRACTS`` pins the tolerance of every row of ``verify.SCENARIO_CHECKS`` and
``verify.CATALOG_CHECKS``, one per sub-check for a row whose measure returns a dict, so
that a change to any contract is an edit of this file, which CHANGES.md records.

``tests/headroom.json`` holds the worst measured/tolerance ratio of each kind, row and
sub-check over the golden scenarios: the five catalog kinds at each s0 of
``tools/golden.py``'s ``S0S``, and its ``tables()`` (kind ``user_table``) at their s0 values.
Only rows whose gate lets them run are read.  The ratchet test reads the ratios again and
fails where one grows more than tenfold and ends above 1e-8.  It is not a tolerance: a change
that moves the numerics on purpose rewrites the file with

    PYTHONPATH=src python tests/test_contracts.py

and quotes the old and new ratios in CHANGES.md.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np

import pinchlab as pl
from pinchlab import verify
from pinchlab.config import ScenarioConfig

spec = importlib.util.spec_from_file_location("golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

HEADROOM = Path(__file__).with_name("headroom.json")

#: each verify row, and each sub-check, with its tolerance
CONTRACTS = {
    "trace_identity": 1e-12,
    "curvature_fd_oracle": 1e-5,
    "potential_identities": {"harmonic_flux": 1e-6, "w_equation": 1e-6, "gradw_consistency": 1e-9, "u_range": 1e-12},
    "capacity_scaling": 1e-6,
    "integral_geometry": {"coarea": 1e-4, "holder_saturation": 1e-6},
    "level_roundtrip": 1e-10,
    "functional_bounds": {"flux_le_willmore_quarter": 1e-9, "ncap_flux_agreement": 1e-9},
    "scalar_flatness": 1e-8,
    "F_monotone": 1e-7,
    "dF_explicit_match": 1e-4,
    "G_ode": 1e-4,
    "G_bounds": 1e-9,
    "decay_estimate": None,
    "genus_zero_pointwise": 1e-9,
    "refutation_soundness": None,
    "power/li_yau_exponent": 2e-2,
    "flat/li_yau_exponent": 2e-2,
    "sphere_cap_blend/small_sphere_willmore": 1e-7,
}


def test_every_verify_contract_is_pinned():
    rows = verify.SCENARIO_CHECKS + verify.CATALOG_CHECKS
    assert [check.name for check in rows] == list(CONTRACTS)
    assert {check.name: check.tol for check in rows} == CONTRACTS


def read_headroom():
    """{kind/row[/sub-check]: the worst measured/tolerance ratio} over the golden scenarios."""
    ratios = {}
    catalog = itertools.product(pl.default_catalog(), golden.S0S)
    scenarios = [(kind, metric, float(s0)) for (kind, metric), s0 in catalog]
    scenarios += [("user_table", pl.from_table(s, f), float(s0)) for _, s, f, s0s in golden.tables() for s0 in s0s]
    for kind, metric, s0 in scenarios:
        sc = verify._Scenario(metric, s0, ScenarioConfig(t_max=5.0))  # verify's t_max cap
        for check in verify.SCENARIO_CHECKS:
            if check.tol is not None and check.kind in (None, kind) and not (check.gate and check.gate(sc)):
                _add(ratios, f"{kind}/{check.name}", check.measure(sc), check.tol)
    for check in verify.CATALOG_CHECKS:
        _add(ratios, check.name, check.measure(), check.tol)
    return {key: float(np.max(values)) for key, values in sorted(ratios.items())}  # a NaN stays NaN


def _add(ratios, key, measured, tol):
    if isinstance(measured, dict):
        for sub, value in measured.items():
            _add(ratios, f"{key}/{sub}", value, tol[sub])
    else:
        measured = measured.measured if isinstance(measured, verify.Reading) else measured
        ratios.setdefault(key, []).append(measured / tol)


def test_headroom_ratchet():
    old, new = json.loads(HEADROOM.read_text()), read_headroom()
    assert list(new) == list(old), "the rows read changed; rewrite tests/headroom.json"
    grown = {key: (old[key], new[key]) for key in old if not new[key] <= max(10.0 * old[key], 1e-8)}
    assert grown == {}, "ratios grown more than tenfold, (old, new)"


if __name__ == "__main__":
    ratios = {key: float(f"{r:.3g}") for key, r in read_headroom().items()}
    HEADROOM.write_text(json.dumps(ratios, indent=1) + "\n")
