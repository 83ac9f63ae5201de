"""Tests of the benchmark's own code: corpus determinism and validity, and
the tracer's bookkeeping.  Run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CORPORA = [w for w in corpus.WORKLOADS if w != "selfcheck"]
SEEDS = (0, 1, 2)


def _hashes_in_subprocess(hash_seed):
    code = (
        "import json, corpus; print(json.dumps({'%s:%s' % (w, s): corpus.corpus_sha256("
        "corpus.generate(w, s)) for w in corpus.WORKLOADS for s in " + repr(SEEDS) + "}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_same_seed_same_corpus_bytes():
    here = {"%s:%s" % (w, s): corpus.corpus_sha256(corpus.generate(w, s)) for w in corpus.WORKLOADS for s in SEEDS}
    # fresh interpreters with different string-hash seeds give the same bytes
    assert _hashes_in_subprocess(1) == here
    assert _hashes_in_subprocess(2) == here
    golden = json.loads((HERE / "golden.json").read_text())
    for w in CORPORA:
        assert golden[w]["corpus_sha256"] == here["%s:%d" % (w, corpus.DEFAULT_SEED)]
        assert len({here["%s:%d" % (w, s)] for s in SEEDS}) == len(SEEDS)


def test_golden_covers_every_workload():
    golden = json.loads((HERE / "golden.json").read_text())
    assert set(golden) == set(corpus.WORKLOADS)
    for w in CORPORA:
        assert len(golden[w]["reports"]) == len(corpus.generate(w, corpus.DEFAULT_SEED))


@pytest.mark.parametrize(
    "poly, p, degrees",
    [
        ([1, 0, 0, 0, 0, 1], 3, [1, 4]),  # x^5 + 1 = (x + 1) * Phi_10
        ([2, 1, 0, 1], 3, [1, 2]),  # x^3 + x + 2 has the root 2 only
        ([0, 1, 1], 5, [1, 1]),
        ([1, 1, 0, 0, 0, 1], 2, [2, 3]),  # x^5 + x + 1 = (x^2+x+1)(x^3+x^2+1)
        ([1, 0, 1], 3, [2]),
        ([0, 0, 1], 5, None),  # x^2 is not squarefree
    ],
)
def test_factor_degrees(poly, p, degrees):
    assert corpus.factor_degrees(poly, p) == degrees


def _evaluate(form, point, p):
    return sum(c * point[0] ** i * point[1] ** j * point[2] ** k for (i, j, k), c in form.items()) % p


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_inputs_are_valid(seed):
    for op in corpus.generate("cohomology", seed):
        doc = op["config"]
        p, curve = doc["field"]["p"], doc["curve"]
        if curve["model"] == "elliptic":
            assert corpus._elliptic_disc(curve["a"], curve["b"], p)
        lo, hi = doc["degrees"]
        assert lo <= hi <= 40

    patterns = []
    for op in corpus.generate("extension-reciprocity", seed):
        doc = op["config"]
        p, A, B = doc["field"]["p"], doc["curve"]["a"], doc["curve"]["b"]
        assert corpus._elliptic_disc(A, B, p) and op["ext_bound"] == 16
        (f, g, e), = doc["symbols"][0]
        assert any(c % p for c in f["num"][1:]) and any(c % p for c in g["num"][1:]) and e
        norm = corpus._sub(
            corpus._mul(f["num"], f["num"], p),
            corpus._mul(corpus._mul(f["ynum"], f["ynum"], p), [B, A, 0, 1], p),
            p,
        )
        patterns.append(tuple(corpus.factor_degrees(norm, p)))
    assert max(max(d) for d in patterns) == 5

    for op in corpus.generate("plane-intersect", seed):
        doc = op["config"]
        p = doc["field"]["p"]
        forms = []
        for key in ("divisor1", "divisor2"):
            (entry,) = doc[key]
            form = {(i, j, k): c for i, j, k, c in entry["form"]}
            assert form and all(c % p for c in form.values())
            assert len({i + j + k for i, j, k in form}) == 1  # homogeneous
            forms.append(form)
        d1, d2 = (sum(next(iter(f))) for f in forms)
        assert d1 * d2 <= 6
        assert d1 != d2 or not corpus._proportional(forms[0], forms[1], p)
        for form in forms:
            if sum(next(iter(form))) > 1:
                _assert_smooth(form, p)


def _assert_smooth(form, p):
    """No GF(p) point where the form and its three partials vanish."""
    partials = []
    for var in range(3):
        d = {}
        for m, c in form.items():
            if m[var]:
                key = tuple(e - (n == var) for n, e in enumerate(m))
                d[key] = d.get(key, 0) + c * m[var]
        partials.append(d)
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if (x, y, z) != (0, 0, 0):
                    pt = (x, y, z)
                    assert any(_evaluate(g, pt, p) for g in [form] + partials)


def test_tracer_self_time_and_restore():
    from adele_forge import _kernels, fields
    from adele_forge.fields import Polynomial, prime_field

    originals = (fields.factor_polynomial, _kernels.poly_mul, Polynomial.__mul__, fields.FieldElement.__add__)
    tracer = Tracer()
    tracer.install()
    try:
        F = prime_field(7)
        f = Polynomial.from_ints(F, [1, 0, 0, 1]) * Polynomial.from_ints(F, [3, 1])
        tracer.run_span("selfcheck.root", "selfcheck", fields.factor_polynomial, f)
    finally:
        tracer.uninstall()
    assert (fields.factor_polynomial, _kernels.poly_mul, Polynomial.__mul__, fields.FieldElement.__add__) == originals

    self_ns, in_factor = tracer.self_times()
    assert all(t >= 0 for t in self_ns)
    root = next(i for i, nid in enumerate(tracer.span_name) if tracer.names[nid] == "selfcheck.root")
    total = tracer.span_end[root] - tracer.span_start[root]
    under_root = [i for i in range(len(self_ns)) if i >= root]
    assert sum(self_ns[i] for i in under_root) == total
    metrics = tracer.layer_metrics()
    assert metrics["fields.factor.calls"] == 1
    assert metrics["fields.poly_ops"] > 0 and metrics["kernels.poly_mul.calls"] > 0
    assert metrics["fields.scalar_ops"] > 0 and metrics["fields.scalar_ops_ext"] == 0
    assert 0 < metrics["fields.factor.self_s"] <= metrics["fields.self_s"]
