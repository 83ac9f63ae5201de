import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adele_forge
from adele_forge import adelic
from adele_forge.cli import main, run_config
from adele_forge.errors import DomainError, SchemaError
from adele_forge.surface import HomForm, _has_linear_factor

WEIL_DOC = {
    "field": {"p": 5},
    "curve": {"model": "elliptic", "a": -1, "b": 0},
    "task": "weil",
    "l": 2,
    "P": [0, 0],
    "Q": [1, 0],
}


def test_rr_table_task():
    doc = {
        "field": {"p": 5},
        "curve": {"model": "projective-line"},
        "task": "rr-table",
        "degrees": [-3, 5],
    }
    rep = run_config(doc)
    assert rep["oracle"]["riemann_roch_closed_form"] == "match"
    rows = rep["result"]["table"]
    assert len(rows) == 9
    for row in rows:
        assert int(row["h0"]) - int(row["h1"]) == int(row["degree"]) + 1


# X0^2 + X1^2 - X2^2 and X0^2 + 2X1^2 - 3X2^2 over GF(7) meet where
# X1 = +-3X2 and X0^2 = -X2^2: two points of degree 2
CONICS_DOC = {
    "field": {"p": 7},
    "task": "intersect",
    "divisor1": [{"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1}],
    "divisor2": [{"form": [[2, 0, 0, 1], [0, 2, 0, 2], [0, 0, 2, -3]], "multiplicity": 1}],
}

LINE_CONIC_DOC = {
    "field": {"p": 7},
    "task": "intersect",
    "divisor1": [{"form": [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1]], "multiplicity": 2}],
    "divisor2": [{"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1}],
}

# two nonsingular cubics over GF(7) meeting in a rational point and a point
# of degree 8, so they need ext_bound 8
CUBICS_DOC = {
    "field": {"p": 7},
    "task": "intersect",
    "divisor1": [{"form": [[0, 0, 3, 6], [0, 1, 2, 3], [0, 2, 1, 6], [0, 3, 0, 1], [1, 2, 0, 3],
                           [2, 0, 1, 6], [2, 1, 0, 5], [3, 0, 0, 6]], "multiplicity": 1}],
    "divisor2": [{"form": [[0, 0, 3, 1], [0, 1, 2, 3], [0, 2, 1, 1], [0, 3, 0, 3], [1, 0, 2, 5],
                           [1, 2, 0, 2], [2, 0, 1, 6], [2, 1, 0, 4], [3, 0, 0, 1]], "multiplicity": 1}],
}


def test_intersect_task():
    rep = run_config(CONICS_DOC)
    assert rep["result"]["intersection_number"] == "4"
    assert rep["oracle"]["oracles"] == "match"
    assert rep["oracle"]["bezout"] == "4"
    assert [row["point"]["degree"] for row in rep["result"]["cycle"]] == ["2", "2"]


@pytest.mark.parametrize(
    "doc, ext_bound, digest",
    [
        (LINE_CONIC_DOC, 6, "1c24931dea9e46986645f9d89ac862db42c2ba90f5adcd54123eca9e970c980c"),
        (CONICS_DOC, 6, "2c473495eee485e386d214085ee20ff1df89057561eac96f3e941ba09eafe89f"),
        (CUBICS_DOC, 8, "2b408b61efda2f2bc410afca7e2ae558e5d5d90698a539c9f2ad038b72930605"),
    ],
    ids=["line-conic", "conic-conic", "cubic-cubic"],
)
def test_intersect_report_bytes(doc, ext_bound, digest):
    # SHA-256 of the report without "version", as perfbench digests it
    rep = run_config(doc, ext_bound=ext_bound)
    assert rep["oracle"]["oracles"] == "match"
    body = {k: v for k, v in rep.items() if k != "version"}
    assert hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest() == digest


# y^2 = x^3 + 2 over GF(7) has full 3-torsion; (0, 3) and (3, 1) generate it
TORSION3_DOC = {
    "field": {"p": 7},
    "curve": {"model": "elliptic", "a": 0, "b": 2},
    "task": "massey",
    "l": 3,
    "P": [0, 3],
    "Q": [3, 1],
}

# Curve models need a prime base field, so no weil or massey config reaches
# GF(p^k) scalars.  These two run the k > 1 product instead: a tame symbol
# at a degree-2 place of P^1 over GF(7), whose value lies in GF(49), and
# Weil reciprocity on an elliptic curve through places of degree up to 16.
TAME_GF49_DOC = {
    "field": {"p": 7},
    "curve": {"model": "projective-line"},
    "task": "tame",
    "symbol": [[{"num": [1, 0, 1]}, {"num": [2, 1, 3]}, 1]],
    "place": {"type": "finite", "poly": [1, 0, 1]},
}
RECIPROCITY_EXT_DOC = {
    "field": {"p": 5},
    "curve": {"model": "elliptic", "a": 3, "b": 3},
    "task": "reciprocity",
    "symbols": [[[{"num": [3, 2], "ynum": [1, 1]}, {"num": [1, 2]}, -1]]],
}
# divisors with affine places on y^2 = x^3 + x + 1 over GF(5): their
# Riemann-Roch bases have denominators and y-parts
RR_AFFINE_DOC = {
    "field": {"p": 5},
    "curve": {"model": "elliptic", "a": 1, "b": 1},
    "task": "rr-table",
    "divisors": [
        [{"place": {"type": "affine", "x": 0, "y": 1}, "multiplicity": 2},
         {"place": {"type": "origin"}, "multiplicity": 1}],
        [{"place": {"type": "affine", "x": 2, "y": 4}, "multiplicity": 1},
         {"place": {"type": "affine", "x": 3, "y": 1}, "multiplicity": -1}],
        [{"place": {"type": "affine", "x": 4, "y": 2}, "multiplicity": 3},
         {"place": {"type": "origin"}, "multiplicity": -1}],
        [{"place": {"type": "affine", "x": 0, "y": 4}, "multiplicity": -2},
         {"place": {"type": "origin"}, "multiplicity": 1}],
    ],
}
RECIPROCITY_P1_DOC = {
    "field": {"p": 7},
    "curve": {"model": "projective-line"},
    "task": "reciprocity",
    "symbols": [
        [[{"num": [1, 2, 1], "den": [3, 1]}, {"num": [2, 0, 1]}, 1]],
        [[{"num": [0, 1]}, {"num": [1, 1], "den": [2, 0, 1]}, 2],
         [{"num": [3, 0, 0, 1]}, {"num": [6, 5], "den": [1, 0, 1]}, -1]],
    ],
}


@pytest.mark.parametrize(
    "doc, ext_bound, digest",
    [
        (WEIL_DOC, 6, "a4a7b4c5e8ebb65eca68ffa1b36e3937d05ad79deb54b8a123df8f8c0bc019e6"),
        (TORSION3_DOC, 6, "cd31d65a51225bff7b5b3431cc0d40b8b723d21d74f7f39c1c8ff4c220fd3e78"),
        (TAME_GF49_DOC, 6, "893dbdc32726b80c15c427540d640526374eafa17b29eabca33103aceb021700"),
        (RECIPROCITY_EXT_DOC, 16, "70bef0c0b1669afb22d56439c34a5690feae0e7f0c8a8488261449e58afe2f23"),
        (RR_AFFINE_DOC, 6, "c7291d02a2587dff3832a8eb8eee4451ab2c0400198196a0ef3b41ea835b90d5"),
        (RECIPROCITY_P1_DOC, 6, "2d53abda5eea24626e722d83eb17b05cbe996d6c5dc14f22e9b2073ddcf4967a"),
    ],
    ids=["weil-gf5", "massey-3-torsion", "tame-gf49", "reciprocity-ext16", "rr-table-affine-gf5",
         "reciprocity-p1"],
)
def test_pairing_report_bytes(doc, ext_bound, digest):
    # SHA-256 of the report without "version", as perfbench digests it
    rep = run_config(doc, ext_bound=ext_bound)
    assert "MISMATCH" not in rep["oracle"].values()
    body = {k: v for k, v in rep.items() if k != "version"}
    assert hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode()).hexdigest() == digest


def test_intersect_cubic_over_gf2():
    # on the line X2 = 0 the cubic restricts to X0*X1*(X0 + X1), which is
    # zero at all three points of P^1(GF(2)); the cubic is still irreducible
    # and nonsingular
    doc = {
        "field": {"p": 2},
        "task": "intersect",
        "divisor1": [{"form": [[2, 1, 0, 1], [1, 2, 0, 1], [0, 0, 3, 1]], "multiplicity": 1}],
        "divisor2": [{"form": [[1, 0, 0, 1]], "multiplicity": 1}],
    }
    rep = run_config(doc)
    assert rep["result"]["intersection_number"] == "3"
    assert rep["oracle"]["oracles"] == "match"


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_intersect_at_large_p(p):
    # the linear-factor check finds candidate lines as roots instead of
    # walking the p^3 lines of the plane
    doc = {
        "field": {"p": p},
        "task": "intersect",
        "divisor1": [{"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -1]], "multiplicity": 1}],
        "divisor2": [{"form": [[0, 1, 0, 1]], "multiplicity": 1}],
    }
    t0 = time.perf_counter()
    rep = run_config(doc)
    assert time.perf_counter() - t0 < 5.0
    assert rep["result"]["intersection_number"] == "2"
    assert rep["oracle"]["oracles"] == "match"


@pytest.mark.parametrize("p", [1000003, 2**61 - 1])
def test_intersect_conics_through_vertices_at_large_p(p):
    # every coordinate line meets a contributing point, so the auxiliary
    # line has three nonzero coefficients: found without walking ~p^2 lines
    doc = {
        "field": {"p": p},
        "task": "intersect",
        "divisor1": [{"form": [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]], "multiplicity": 1}],
        "divisor2": [{"form": [[1, 1, 0, 1], [0, 1, 1, 2], [1, 0, 1, 3]], "multiplicity": 1}],
    }
    t0 = time.perf_counter()
    rep = run_config(doc)
    assert time.perf_counter() - t0 < 5.0
    assert rep["result"]["intersection_number"] == "4"
    assert rep["oracle"]["oracles"] == "match"


@pytest.mark.parametrize(
    "form, message",
    [
        ([[-1, 2, 0, 1]], "negative exponent"),
        ([[5, 0, 0, 1], [0, 5, 0, 1], [0, 0, 5, 1]], "linear factor"),  # (X0 + X1 + X2)^5
    ],
)
def test_intersect_form_rejections(tmp_path, capsys, form, message):
    doc = {
        "field": {"p": 5},
        "task": "intersect",
        "divisor1": [{"form": form, "multiplicity": 1}],
        "divisor2": [{"form": [[1, 0, 0, 1]], "multiplicity": 1}],
    }
    with pytest.raises(SchemaError, match=message):
        run_config(doc)
    cfg = tmp_path / "form.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_weil_task():
    rep = run_config(WEIL_DOC)
    assert rep["result"]["pairing"] == ["4"]
    assert rep["oracle"]["miller_oracle"] == "match"


def test_weil_and_massey_with_l_4_on_2_torsion():
    # the Miller chain of a 2-torsion P reaches O at 2P and then doubles it
    doc = dict(WEIL_DOC, l=4, P=[1, 0], Q=[2, 1])
    rep = run_config(doc)
    assert rep["result"]["pairing"] == ["4"]
    assert rep["oracle"]["miller_oracle"] == "match"
    rep = run_config(dict(doc, task="massey"))
    assert rep["result"]["direct_image"] == ["4"]
    assert rep["oracle"]["pairing_oracle"] == "match"


def test_massey_task():
    doc = dict(WEIL_DOC)
    doc["task"] = "massey"
    rep = run_config(doc)
    assert rep["result"]["direct_image"] == ["4"]
    assert rep["oracle"]["pairing_oracle"] == "match"


def test_weil_and_massey_at_large_p():
    # the translation offsets are enumerated lazily: both tasks stop after
    # the first few points instead of taking a square root for every x
    for task, value, oracle in (
        ("weil", ("result", "pairing"), "miller_oracle"),
        ("massey", ("oracle", "pairing_value"), "pairing_oracle"),
    ):
        doc = dict(WEIL_DOC, field={"p": 1000003}, task=task)
        t0 = time.perf_counter()
        rep = run_config(doc)
        assert time.perf_counter() - t0 < 5.0
        assert rep[value[0]][value[1]] == ["1000002"]
        assert rep["oracle"][oracle] == "match"


def test_tame_and_reciprocity_tasks():
    doc = {
        "field": {"p": 7},
        "curve": {"model": "projective-line"},
        "task": "tame",
        "symbol": [[{"num": [0, 1]}, {"num": [5, 1]}, 1]],
        "place": {"type": "finite", "poly": [5, 1]},
    }
    rep = run_config(doc)
    assert rep["result"]["value"] == ["2"]
    doc = {
        "field": {"p": 7},
        "curve": {"model": "projective-line"},
        "task": "reciprocity",
        "symbols": [[[{"num": [0, 1]}, {"num": [6, 1]}, 1]]],
    }
    rep = run_config(doc)
    assert rep["oracle"]["weil_reciprocity"] == "match"


def test_report_deterministic():
    a = json.dumps(run_config(WEIL_DOC), sort_keys=True)
    b = json.dumps(run_config(WEIL_DOC), sort_keys=True)
    assert a == b


@pytest.mark.parametrize(
    "doc",
    [
        CONICS_DOC,
        {
            "field": {"p": 7},
            "curve": {"model": "projective-line"},
            "task": "reciprocity",
            "symbols": [[[{"num": [1, 0, 1]}, {"num": [3, 1, 0, 1]}, 1]]],
        },
        {
            "field": {"p": 7},
            "curve": {"model": "elliptic", "a": 1, "b": 1},
            "task": "rr-table",
            "degrees": [-2, 4],
        },
    ],
)
def test_seed_is_recorded_and_changes_nothing_else(doc):
    # factors and roots are sorted before use, so the splitting seed can
    # only change the time taken
    base = run_config(doc)
    for other in (run_config(doc, seed=7), run_config(dict(doc, seed=12345))):
        assert other.pop("seed") != base["seed"]
        other["input"].pop("seed", None)
        assert other == {k: v for k, v in base.items() if k != "seed"}


def test_integers_are_strings():
    rep = run_config(WEIL_DOC)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, int) or isinstance(node, bool)

    walk(rep["result"])
    walk(rep["oracle"])


def test_schema_rejections():
    with pytest.raises(SchemaError):
        run_config({"task": "nonsense"})
    with pytest.raises(SchemaError):
        run_config(dict(WEIL_DOC, extra=1))
    with pytest.raises(SchemaError):
        run_config({"task": "weil"})
    for task in ("weil", "massey"):
        for key in ("l", "P", "Q"):
            doc = {k: v for k, v in dict(WEIL_DOC, task=task).items() if k != key}
            with pytest.raises(SchemaError, match="^%s needs l, P and Q$" % task):
                run_config(doc)
    bad_field = dict(WEIL_DOC)
    bad_field["field"] = {"p": 4}
    with pytest.raises(SchemaError):
        run_config(bad_field)
    bad_place = {
        "field": {"p": 5},
        "curve": {"model": "projective-line"},
        "task": "tame",
        "symbol": [[{"num": [0, 1]}, {"num": [1, 1]}, 1]],
        "place": {"type": "finite", "poly": [1, 0, 1]},  # reducible over GF(5)
    }
    with pytest.raises((SchemaError, DomainError)):
        run_config(bad_place)


def test_domain_error_for_off_curve_point():
    doc = dict(WEIL_DOC)
    doc["P"] = [0, 1]
    with pytest.raises(DomainError):
        run_config(doc)


def test_main_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "weil.json"
    cfg.write_text(json.dumps(WEIL_DOC))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["pairing"] == ["4"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "weil"}))
    assert main(["run", str(bad)]) == 2

    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps(dict(WEIL_DOC, P=[0, 1])))
    assert main(["run", str(dom)]) == 1

    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2


RR_DOC = {
    "field": {"p": 5},
    "curve": {"model": "projective-line"},
    "task": "rr-table",
}


def test_rr_table_degree_bounds(tmp_path, capsys):
    with pytest.raises(SchemaError, match=r"lo = 3 > hi = -2"):
        run_config(dict(RR_DOC, degrees=[3, -2]))
    with pytest.raises(SchemaError, match=r"\[lo, hi\]"):
        run_config(dict(RR_DOC, degrees=[1, 2, 3]))
    assert len(run_config(dict(RR_DOC, degrees=[2, 2]))["result"]["table"]) == 1
    cfg = tmp_path / "rr.json"
    cfg.write_text(json.dumps(dict(RR_DOC, degrees=[3, -2])))
    assert main(["run", str(cfg)]) == 2
    assert "lo = 3 > hi = -2" in capsys.readouterr().err


# 2^89 - 1 is prime and (2^61 - 1)(2^31 - 1) has no factor <= 41: both are
# above the bound below which is_prime decides exactly
@pytest.mark.parametrize("p", [2**89 - 1, (2**61 - 1) * (2**31 - 1)])
def test_characteristic_above_the_primality_bound_is_a_schema_error(tmp_path, capsys, p):
    doc = dict(RR_DOC, field={"p": p}, degrees=[0, 0])
    start = time.monotonic()
    with pytest.raises(SchemaError, match="characteristic %d is above" % p) as exc:
        run_config(doc)
    assert exc.value.exit_status == 2
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("schema error [schema]: field: characteristic %d" % p)
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("task", ["weil", "massey"])
@pytest.mark.parametrize("l", [0, -3])
def test_l_must_be_positive(task, l):
    with pytest.raises(DomainError, match="l must be a positive integer"):
        run_config(dict(WEIL_DOC, task=task, l=l))


@pytest.mark.parametrize("P, Q", [("O", [0, 0]), ([0, 0], "O"), ("O", "O")])
def test_massey_with_O_is_trivial(tmp_path, P, Q):
    doc = dict(WEIL_DOC, task="massey", P=P, Q=Q)
    with pytest.raises(DomainError, match="trivial"):
        run_config(doc)
    cfg = tmp_path / "massey.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 1
    assert run_config(dict(doc, task="weil"))["result"]["pairing"] == ["1"]


def test_rr_table_stabilization_cap_is_a_domain_error(tmp_path, capsys):
    # degree -5000 needs m > 4096 before two consecutive h1 agree
    cfg = tmp_path / "rr.json"
    cfg.write_text(json.dumps(dict(RR_DOC, degrees=[-5000, -5000])))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error [domain]: ")
    assert "degree -5000" in captured.err and "4096" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_rr_table_reports_a_riemann_roch_mismatch(tmp_path, capsys, monkeypatch):
    # an h1 one too large breaks h0 - h1 = deg + 1 - g on every row: the
    # report says MISMATCH and the run exits 1, instead of raising
    h1_estimate = adelic._h1_estimate
    monkeypatch.setattr(adelic, "_h1_estimate", lambda *args: h1_estimate(*args) + 1)
    cfg = tmp_path / "rr.json"
    cfg.write_text(json.dumps(dict(RR_DOC, degrees=[-1, 2])))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["oracle"]["riemann_roch_closed_form"] == "MISMATCH"
    assert [row["riemann_roch"] for row in report["result"]["table"]] == ["MISMATCH"] * 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


def test_rr_table_with_a_wrong_kernel_exits_cleanly(tmp_path, capsys, monkeypatch):
    # an h0 one too large means the principal-parts kernel is not L(D): a
    # domain error and exit 1, not an AssertionError traceback
    dimension = adelic.riemann_roch_dimension
    monkeypatch.setattr(adelic, "riemann_roch_dimension", lambda *args: dimension(*args) + 1)
    cfg = tmp_path / "rr.json"
    cfg.write_text(json.dumps(dict(RR_DOC, degrees=[0, 2])))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error [domain]: principal-parts kernel is not L(D)\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("curve", [{"model": "projective-line"}, {"model": "elliptic", "a": 1, "b": 1}])
def test_rr_table_wide_window_fails_at_its_first_divisor(tmp_path, capsys, curve):
    # the window is iterated, never built: degree -10^9 fails before the next
    cfg = tmp_path / "rr.json"
    cfg.write_text(json.dumps(dict(RR_DOC, curve=curve, degrees=[-1000000000, 3])))
    start = time.perf_counter()
    assert main(["run", str(cfg)]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error [domain]: ")
    assert "degree -1000000000" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "curve, hi",
    [({"model": "projective-line"}, 200), ({"model": "elliptic", "a": 1, "b": 1}, 60)],
)
def test_rr_table_whole_window_in_bounded_time(curve, hi):
    start = time.perf_counter()
    rep = run_config(dict(RR_DOC, curve=curve, degrees=[0, hi]))
    elapsed = time.perf_counter() - start
    assert rep["oracle"]["riemann_roch_closed_form"] == "match"
    assert len(rep["result"]["table"]) == hi + 1
    assert elapsed < 6.0, elapsed


@pytest.mark.parametrize(
    "doc",
    [
        RR_DOC,
        # the divisor is never parsed when degrees is read first
        dict(RR_DOC, degrees=[0, 1], divisors=[[{"place": {"type": "bogus-never-read"}, "multiplicity": 1}]]),
    ],
    ids=["neither", "both"],
)
def test_rr_table_takes_exactly_one_of_degrees_and_divisors(tmp_path, capsys, doc):
    message = "rr-table needs exactly one of degrees and divisors"
    with pytest.raises(SchemaError, match=message):
        run_config(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_options_are_read_after_their_subcommand_only(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(RR_DOC, degrees=[0, 1])))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--seed", "3", "--ext-bound", "9", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["seed"], report["ext_bound"]) == ("3", "9")
    assert capsys.readouterr().out == ""
    # before the subcommand an option used to be parsed and then replaced by
    # the subcommand's default: the report read seed 0 and no file was written
    for argv in (
        ["--seed", "3", "run", str(cfg)],
        ["--ext-bound", "9", "run", str(cfg)],
        ["--out", str(tmp_path / "never.json"), "run", str(cfg)],
        ["--out", str(tmp_path / "never.json"), "selfcheck"],
        ["selfcheck", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert capsys.readouterr().out == ""
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(RR_DOC, divisors=3), "divisors must be a nonempty list"),
        (dict(RR_DOC, divisors=[]), "divisors must be a nonempty list"),
        (dict(RECIPROCITY_EXT_DOC, symbols=7), "symbols must be a nonempty list"),
        (dict(RECIPROCITY_EXT_DOC, symbols=[]), "symbols must be a nonempty list"),
    ],
    ids=["divisors-int", "divisors-empty", "symbols-int", "symbols-empty"],
)
def test_non_list_payloads_are_schema_errors(tmp_path, capsys, doc, message):
    with pytest.raises(SchemaError, match=message):
        run_config(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("schema error ") and message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_intersect_over_an_extension_field_is_a_domain_error(tmp_path, capsys):
    # over GF(49) the line X0 = 0 meets X0^2 + X1^2 - 3X2^2 in two rational
    # points; plane curves are forms over GF(p), so the field is refused
    # instead of silently computing over GF(7)
    doc = {
        "field": {"p": 7, "k": 2, "modulus": [1, 0, 1]},
        "task": "intersect",
        "divisor1": [{"form": [[1, 0, 0, 1]], "multiplicity": 1}],
        "divisor2": [{"form": [[2, 0, 0, 1], [0, 2, 0, 1], [0, 0, 2, -3]], "multiplicity": 1}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [domain]: plane intersections require a prime base field, not GF(7^2)\n"


def _form_product(a, b, p):
    """The product mod p of two forms given as {(i, j, k): c} dicts."""
    out = {}
    for (i, j, k), c in a.items():
        for (i2, j2, k2), c2 in b.items():
            key = (i + i2, j + j2, k + k2)
            out[key] = (out.get(key, 0) + c * c2) % p
    return [[i, j, k, c] for (i, j, k), c in sorted(out.items()) if c]


def _quintic_without_line(rng, p):
    while True:
        terms = {(i, j, 5 - i - j): rng.randrange(p) for i in range(6) for j in range(6 - i)}
        terms = {m: c for m, c in terms.items() if c}
        if terms and not _has_linear_factor(HomForm(p, terms)):
            return terms


def _shared_component_doc(p, shared, cofactors):
    forms = [_form_product(shared, q, p) for q in cofactors]
    return {
        "field": {"p": p},
        "task": "intersect",
        "divisor1": [{"form": forms[0], "multiplicity": 1}],
        "divisor2": [{"form": forms[1], "multiplicity": 1}],
    }


def _assert_domain_error(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["run", str(cfg)]) == 1
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [domain]: " + message)
    return elapsed


def test_intersect_rejects_a_shared_cubic_up_front(tmp_path, capsys):
    # forms of degree > 3 are checked for lines only, so these two degree-8
    # forms are accepted; they share the nonsingular cubic X1^2X2 - X0^3 - X0X2^2,
    # and the resultant, not a local multiplicity, has to reject the pair
    rng = Random(0)
    cubic = {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -1}
    doc = _shared_component_doc(7, cubic, [_quintic_without_line(rng, 7) for _ in range(2)])
    assert _assert_domain_error(tmp_path, capsys, doc, "identically zero resultant") < 2.0


def test_intersect_rejects_a_shared_line_pair_up_front(tmp_path, capsys):
    # X0^2 + X1^2 is irreducible over GF(7) and splits into two lines through
    # (0:0:1) over GF(49); the fibres over those directions vanish on both forms
    doc = _shared_component_doc(
        7, {(2, 0, 0): 1, (0, 2, 0): 1}, [{(0, 1, 1): 1, (2, 0, 0): -1}, {(1, 0, 1): 1, (0, 2, 0): -1}]
    )
    _assert_domain_error(tmp_path, capsys, doc, "improper intersection: common line component")


NODAL_CUBIC = [[0, 2, 1, 1], [3, 0, 0, -1], [2, 0, 1, -1]]  # X1^2*X2 - X0^3 - X0^2*X2


def test_intersect_on_a_singular_flag_curve(tmp_path, capsys):
    # the nodal cubic meets X0 = 0 at its node (0:0:1), to order 2, and at
    # (0:1:0); flags run along divisor1, so only the cubic as divisor1 puts
    # a flag at the node
    line = [{"form": [[1, 0, 0, 1]], "multiplicity": 1}]
    cubic = [{"form": NODAL_CUBIC, "multiplicity": 1}]
    doc = {"field": {"p": 7}, "task": "intersect", "divisor1": cubic, "divisor2": line}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [domain]: flag-curve singular at (0:0:1)\n"
    rep = run_config(dict(doc, divisor1=line, divisor2=cubic))
    assert rep["result"]["intersection_number"] == "3"
    assert rep["oracle"]["oracles"] == "match"


# ---------------------------------------------------------------------------
# CLI fuzz: mutated configs exit cleanly

# one cheap valid config per task; rr-table windows stay narrow, since the
# cost of a wide one is not bounded
FUZZ_BASES = [
    dict(RR_DOC, degrees=[-2, 3]),
    RR_AFFINE_DOC,
    RECIPROCITY_P1_DOC,
    TAME_GF49_DOC,
    LINE_CONIC_DOC,
    WEIL_DOC,
    TORSION3_DOC,
    {"task": "selfcheck"},
]
WRONG_TYPES = [None, True, 1.5, "x", {}]
OUT_OF_RANGE = [-1, 0, -(10**9)]
MESSAGE = re.compile(r"(schema )?error \[[a-z]+\]: [^\n]+\n")


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _add_key(draw, node):
    node["bogus"] = 1


def _drop_key(draw, node):
    del node[draw(st.sampled_from(sorted(node)))]


# each mutation: which nodes it applies to, and what it does to one: a
# strategy for the node that replaces it, or an edit of the node in place
MUTATIONS = {
    "wrong type": (lambda node: True, st.sampled_from(WRONG_TYPES)),
    "out-of-range int": (
        lambda node: isinstance(node, int) and not isinstance(node, bool),
        st.sampled_from(OUT_OF_RANGE),
    ),
    "empty list": (lambda node: isinstance(node, list), st.just([])),
    "unknown key": (lambda node: isinstance(node, dict), _add_key),
    "missing key": (lambda node: isinstance(node, dict) and bool(node), _drop_key),
}


@st.composite
def _mutated_configs(draw):
    """A base config with one to three mutations."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    todo = draw(st.integers(1, 3))
    while todo:
        applies, values = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))]
        paths = [p for p in _paths(doc) if applies(_at(doc, p))]
        if not paths:
            continue
        todo -= 1
        path = draw(st.sampled_from(paths))
        if isinstance(values, st.SearchStrategy):
            doc = _replace(doc, path, copy.deepcopy(draw(values)))
        else:
            values(draw, _at(doc, path))
    return doc


def test_cli_fuzz_exits_cleanly():
    # every mutated config exits 0, 1, 2 or 3 through main(); a nonzero exit
    # carries exactly one error line on stderr, and nothing raises
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"

        @settings(deadline=None, max_examples=300)
        @given(_mutated_configs())
        def check(doc):
            cfg.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = main(["run", str(cfg)])
            assert status in (0, 1, 2, 3)
            if status:
                assert MESSAGE.fullmatch(err.getvalue()), err.getvalue()
            else:
                assert err.getvalue() == "" and json.loads(out.getvalue())

        check()


def _run_main(doc):
    """main's exit status and stderr on a config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["run", str(cfg)])
    return status, err.getvalue()


def test_every_one_key_deletion_exits_cleanly():
    # deleting any one key of a fuzz base raises no uncaught exception; a
    # place without its type's own keys is a schema error
    for base in FUZZ_BASES:
        for path in _paths(base):
            node = _at(base, path)
            for key in node if isinstance(node, dict) else ():
                doc = copy.deepcopy(base)
                del _at(doc, path)[key]
                status, err = _run_main(doc)
                assert status in (0, 1, 2), (path, key)
                assert not status or MESSAGE.fullmatch(err), err
                if "place" in path and key != "type":
                    assert err.startswith("schema error [schema]: %s place needs " % node["type"]), err


def test_each_task_reads_only_its_own_keys():
    tame = dict(TAME_GF49_DOC, degrees=[0, 1], divisor1=[], l="junk")
    curve_on_plane = dict(LINE_CONIC_DOC, curve={"model": "elliptic"})
    selfcheck = {"task": "selfcheck", "field": {"p": "zz"}}
    for doc, key in ((tame, "degrees"), (curve_on_plane, "curve"), (selfcheck, "field")):
        assert _run_main(doc) == (2, "schema error [schema]: config has unknown key %r\n" % key)


def test_infinity_is_no_place_of_an_elliptic_curve():
    # the tame symbol of {x + 1, x + 2} at O on y^2 = x^3 - x over GF(5) is 1,
    # and infinity names no place of the elliptic model
    doc = {
        "field": {"p": 5},
        "curve": {"model": "elliptic", "a": -1, "b": 0},
        "task": "tame",
        "symbol": [[{"num": [1, 1]}, {"num": [2, 1]}, 1]],
        "place": {"type": "infinity"},
    }
    status, err = _run_main(doc)
    assert status == 1 and err.startswith("error [domain]: "), err
    at_origin = run_config(dict(doc, place={"type": "origin"}))
    assert at_origin["result"]["value"] == ["1"]


def test_optimized_interpreter_changes_no_selfcheck_byte():
    """``python -O`` strips every assert; the selfcheck report must keep
    every byte."""
    src = str(Path(adele_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "adele_forge.cli", "selfcheck", "--json"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert json.loads(outs[0])["failed"] == "0"
    assert outs[0] == outs[1]
