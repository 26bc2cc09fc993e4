"""CLI behavior: subcommands, JSON output, exit codes."""

from __future__ import annotations

import json

import pytest

from sparsesums import make_field_ctx, mult_energy
from sparsesums.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sum_both_routes_agree(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "--p", "13", "--poly", "1,3;1,1", "--chi", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"]["re"] == pytest.approx(4.6799784917049525, abs=1e-12)

    code, out, _ = run_cli(
        capsys, "sum", "--p", "13", "--poly", "1,4;1,6;1,3;1,2", "--route", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_err"] < 1e-9


def test_count_quantities(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "13", "--quantity", "ntriples", "--orders", "3,4,2"
    )
    assert code == 0
    assert json.loads(out)["count"] == 90

    code, out, _ = run_cli(
        capsys, "count", "--p", "13", "--quantity", "energy",
        "--elements", "2,4,10;2,4,10", "--method", "oracle",
    )
    assert code == 0
    assert json.loads(out)["count"] == 15

    code, out, _ = run_cli(
        capsys, "count", "--p", "13", "--quantity", "idist", "--orders", "2,1"
    )
    assert code == 0
    assert json.loads(out)["table"] == {"0": 2, "2": 1, "11": 1}


def test_count_shifted_energy_of_elements(capsys):
    ctx = make_field_ctx(13)
    # 8 + 5 == 0; the large shifts do not fit int64 once added to an element
    for shift in (5, 2**63 - 1, 2**70 + 5):
        shifted = [(x + shift) % 13 for x in (1, 3, 8, 9, 12)]
        expected = mult_energy(ctx, shifted, shifted, method="oracle").count
        for method in ("optimized", "oracle"):
            code, out, _ = run_cli(
                capsys, "count", "--p", "13", "--quantity", "energy",
                "--elements", "1,3,8,9,12", "--shift", str(shift), "--method", method,
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["count"] == expected and payload["shift"] == shift


def test_count_argument_errors(capsys):
    code, _, err = run_cli(
        capsys, "count", "--p", "13", "--quantity", "energy", "--orders", "3,4,2"
    )
    assert code == 2
    code, _, err = run_cli(capsys, "count", "--p", "13", "--quantity", "energy")
    assert code == 2


def test_bounds_and_compare(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "13", "--poly", "1,4;1,6;1,3;1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd"]["regime"] == "pdelta_small"
    assert payload["gcd"]["value"] == pytest.approx(22.49, abs=5e-3)

    code, out, _ = run_cli(
        capsys, "compare", "--p", "13", "--poly", "1,4;1,6;1,3;1,2", "--chi", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_magnitude"] <= payload["bounds"]["weil"]["value"]


def test_exit_codes(capsys, tmp_path):
    # composite modulus -> config error
    code, _, err = run_cli(capsys, "sum", "--p", "15", "--poly", "1,3;1,1")
    assert code == 2
    assert "error" in err
    # colliding exponents -> config error
    code, _, _ = run_cli(capsys, "sum", "--p", "13", "--poly", "1,3;1,15")
    assert code == 2
    # unreadable config -> io error
    code, _, _ = run_cli(capsys, "verify", "--config", str(tmp_path / "nope.json"))
    assert code == 3
    # bad flag -> argparse error mapped to 2
    code, _, _ = run_cli(capsys, "sum", "--p", "13")
    assert code == 2
    # unknown config key -> config error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"primes": [11], "shenanigans": True}))
    code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2


def test_verify_exit_reflects_failures(capsys, tmp_path):
    ok_cfg = tmp_path / "ok.json"
    ok_cfg.write_text(json.dumps({
        "primes": [11, 13],
        "polynomials": {"random": {"count": 1}},
        "suites": ["identity", "weil", "energy"],
        "seed": 3,
    }))
    code, out, _ = run_cli(capsys, "verify", "--config", str(ok_cfg))
    assert code == 0
    assert "all checks passed" in out

    red_cfg = tmp_path / "red.json"
    red_cfg.write_text(json.dumps({
        "primes": [11, 13],
        "suites": ["ratio"],
        "ratio_ceiling": 0.001,
        "seed": 3,
    }))
    code, out, _ = run_cli(capsys, "verify", "--config", str(red_cfg))
    assert code == 1
    assert "failures" in out


def test_sweep_and_plotdata_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "primes": [11, 13],
        "polynomials": {"random": {"count": 1}},
        "suites": ["ratio", "bounds"],
        "seed": 3,
    }))
    data = tmp_path / "run.jsonl"
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(data))
    assert code == 0
    assert data.exists()

    csv_path = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--out", str(csv_path), "--format", "csv"
    )
    assert code == 0
    assert csv_path.read_text().startswith("schema,idx,")

    plot = tmp_path / "ratio.dat"
    code, _, _ = run_cli(
        capsys, "plotdata", "--kind", "ratio-vs-cardinality",
        "--data", str(data), "--out", str(plot),
    )
    assert code == 0
    assert plot.read_text().startswith("# cardinality")

    code, _, _ = run_cli(
        capsys, "plotdata", "--kind", "winner-map",
        "--data", str(tmp_path / "missing.jsonl"), "--out", str(plot),
    )
    assert code == 3


def test_seed_and_workers_overrides(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "primes": [11],
        "polynomials": {"random": {"count": 1}},
        "suites": ["weil"],
        "seed": 3,
    }))
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(a))[0] == 0
    assert run_cli(
        capsys, "sweep", "--config", str(cfg), "--seed", "4", "--out", str(b)
    )[0] == 0
    # different seed, different generated polynomial
    body = lambda pth: [ln for ln in pth.read_text().splitlines()[1:]]
    assert body(a) != body(b)
