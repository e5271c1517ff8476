"""Quick self-tests of the benchmark: inputs, output checks and tracing.

Run with `python -m pytest -q perfbench` from the root of a checkout (the
full suite collects this file too).  The acceptance corpus generator in
tests/_oracles.py is imported here only; the benchmark itself never
imports tests/ or scipy.
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, PER_LAYER, Tracer  # noqa: E402

CCM = run.import_ccm()


def test_corpus_matches_acceptance_generator():
    sys.path.insert(0, str(HERE.parent / "tests"))
    from _oracles import random_collective

    rng = np.random.default_rng(2026)
    expected = [random_collective(rng, n=2 if t % 2 == 0 else 3) for t in range(20)]
    got = inputs.corpus(20)
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))


def test_seed_relabels_without_changing_instances():
    a, b = inputs.cli_documents(1), inputs.cli_documents(2)
    assert a.keys() == b.keys()
    assert a != b
    for stem in a:
        ga, gb = oracle.generators_of(a[stem]), oracle.generators_of(b[stem])
        assert sorted(map(tuple, ga)) == sorted(map(tuple, gb))


def _reject(check, out):
    errs = check(out)
    assert errs, "a corrupted output passed its check"


def test_sweep_checks_reject_corrupted_certificates(tmp_path):
    wl = workloads.Sweep(CCM, 0, tmp_path)
    for i in (3, 10):  # a 3-agent and a 2-agent problem with cheap sweeps
        certs = wl.run(i)
        assert wl.check(i, certs) == []
        c = certs[0]

        def corrupt(**changes):
            return [dataclasses.replace(c, **changes)] + certs[1:]

        check = lambda out: wl.check(i, out)  # noqa: E731
        _reject(check, corrupt(q=c.q * 0.5))
        _reject(check, corrupt(q=np.roll(c.q, 1)))
        _reject(check, corrupt(payoffs=c.payoffs + 1e-3))
        _reject(check, corrupt(p=c.p * 2.0))
        _reject(check, certs + [c])
        _reject(check, [])
    u = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.6]])
    G = np.vstack([u.T, np.zeros(2)])
    assert oracle.check_two_agent_payoffs(G, [[0.5, 0.6]]) == []
    assert oracle.check_two_agent_payoffs(G, [[0.45, 0.6]])
    assert oracle.check_two_agent_payoffs(G, [[1.0, 0.0]])
    assert oracle.check_weighted_efficiency(u, [0.45, 0.54], [1.0, 1.0])


def test_consumer_value_matches_a_dense_search():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        u, p = rng.uniform(0, 1, k), rng.uniform(0, 3, k)
        grid = rng.dirichlet(np.ones(k + 1), 20000)[:, :k]
        grid = grid[grid @ p <= 1.0]
        dense = max((grid @ u).max(initial=0.0), 0.0)
        assert oracle.consumer_value(u, p) >= dense - 1e-12


def test_audit_checks_reject_corrupted_verdicts(tmp_path):
    wl = workloads.Audit(CCM, 0, tmp_path)
    assert wl.check_setup() == []
    member = next(i for i, q in enumerate(wl.queries) if q[2] and wl.us[q[0]].shape[0] == 3)
    shrink = next(i for i, q in enumerate(wl.queries) if not q[2])
    for i in (member, shrink):
        out = wl.run(i)
        assert wl.check(i, out) == []
    verdict, efficient = wl.run(member)
    cert = verdict.certificate
    w = cert.witness

    def with_witness(scale, base):
        game = CCM.polytope.SimplexGame(scale, base)
        return dataclasses.replace(verdict, certificate=dataclasses.replace(cert, witness=game)), True

    check = lambda out: wl.check(member, out)  # noqa: E731
    _reject(check, (verdict, False))
    _reject(check, (dataclasses.replace(verdict, status=workloads.NON_MEMBER), True))
    _reject(check, with_witness(w.scale * 0.9, w.base))
    _reject(check, with_witness(w.scale, w.base + 1e-3))
    verdict, efficient = wl.run(shrink)
    _reject(lambda out: wl.check(shrink, out), (verdict, True))
    member_verdict = wl.run(member)[0]
    _reject(lambda out: wl.check(shrink, out), (member_verdict, False))


def test_cli_checks_reject_corrupted_outputs(tmp_path):
    wl = workloads.Cli(CCM, 0, tmp_path)
    by_kind = {}
    for i, (stem, what, _, _) in enumerate(wl.items):
        by_kind.setdefault(what, i)
    assert set(by_kind) == {
        "solve", "verify_fresh", "verify_tampered", "nash",
        "equitable_member", "equitable_shrink", "match", "commodify_two",
    }

    def edited(out, fn):
        code, text, err = out
        doc = json.loads(text)
        fn(doc)
        return code, json.dumps(doc, sort_keys=True, indent=2) + "\n", err

    for what, i in by_kind.items():
        out = wl.run(i)
        assert wl.check(i, out) == [], what
        check = lambda o, i=i: wl.check(i, o)  # noqa: E731
        _reject(check, (out[0] ^ 1, out[1], out[2]))
        if what == "solve":
            _reject(check, edited(out, lambda d: d["q"].reverse()))
            doc, res = wl.docs[wl.items[i][0]], json.loads(out[1])
            u = oracle.utilities_of(doc)
            assert oracle.check_lindahl(u, res["p"], res["q"], res["payoffs"]) == []
            assert oracle.check_lindahl(u, np.array(res["p"]) * 2, res["q"], res["payoffs"])
            assert oracle.check_lindahl(u, res["p"], np.array(res["q"]) * 0.5, res["payoffs"])
        elif what == "verify_fresh":
            _reject(check, edited(out, lambda d: d.update(passed=False)))
        elif what == "verify_tampered":
            _reject(check, edited(out, lambda d: d.update(violations=[])))
        elif what == "nash":
            key = "point" if "point" in json.loads(out[1]) and not json.loads(out[1])["q"] else "q"
            _reject(check, edited(out, lambda d: d.update({key: [v * 0.9 for v in d[key]]})))
        elif what == "equitable_member":
            _reject(check, edited(out, lambda d: d["witness"].update(
                scale=[v * 0.95 for v in d["witness"]["scale"]])))
        elif what == "equitable_shrink":
            _reject(check, edited(out, lambda d: d.update(status=workloads.MEMBER)))
        elif what == "match":
            _reject(check, edited(out, lambda d: d.update(round_trip_payoff_gap=1e-17)))
        elif what == "commodify_two":
            _reject(check, edited(out, lambda d: d["weights"][0].__setitem__(0, "0.01")))


class _Flaky:
    """A stand-in workload whose output changes after the first call."""

    labels = ["x"]
    min_rounds = 3

    def __init__(self):
        self.calls = 0

    def run(self, i):
        self.calls += 1
        return self.calls

    def digest(self, i, out):
        return bytes([out > 1])


def test_repeated_rounds_must_repeat_the_first_output():
    *_, errors, raised, rounds = run.measure(_Flaky(), 0.0)
    assert rounds == 3 and len(errors) == 2 and not raised


def _bindings():
    """(module, attribute, value) for every function attribute of the ccm layers."""
    return {
        (layer, name): obj
        for layer in LAYERS
        for name, obj in vars(getattr(CCM, layer)).items()
        if callable(obj)
    }


def test_tracer_rebinds_every_alias_and_restores_it(tmp_path):
    before = _bindings()
    tracer = Tracer({layer: getattr(CCM, layer) for layer in LAYERS})
    originals = {key: fn for key, (fn, _) in tracer.originals().items()}
    tracer.install()
    try:
        during = _bindings()
        for key, obj in before.items():
            if id(obj) in originals:
                assert during[key] is tracer.wrappers[id(obj)], key
        assert CCM.market.maximize_log_sum_batch is not before[("market", "maximize_log_sum_batch")]
        assert CCM.solutions.contains is CCM.polytope.contains
        assert CCM.exchange.verify_lindahl is CCM.market.verify_lindahl
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items())
    import jsonschema

    assert not hasattr(jsonschema.validate, "__wrapped__")


def _traced_counts(tmp_path):
    tmp_path.mkdir()
    tracer = Tracer({layer: getattr(CCM, layer) for layer in LAYERS})
    sweep = workloads.Sweep(CCM, 0, tmp_path)
    cli = workloads.Cli(CCM, 0, tmp_path)
    tracer.install()
    try:
        certs = sweep.run(3)
        spans = list(tracer._spans)
        tracer.end_item()
        for i, (stem, *_) in enumerate(cli.items):
            if stem in ("pair", "cakes"):
                cli.run(i)
                tracer.end_item()
    finally:
        tracer.uninstall()
    root = spans[0]
    assert root.name == "market.sweep_lindahl_payoffs"
    for s in spans[1:]:  # worker-thread spans too hang under the item's root span
        while s.parent is not None:
            s = s.parent
        assert s is root
    assert len(certs) > 4  # large enough for the sweep's thread pool
    return {k: v for k, v in tracer.totals.items() if k.endswith(".calls") or k in PER_LAYER and "ms" not in k}


def test_traced_call_counts_repeat_exactly(tmp_path):
    a = _traced_counts(tmp_path / "a")
    b = _traced_counts(tmp_path / "b")
    assert a == b
    assert a["market.verify_lindahl.calls"] > 0 and a["cli.schema_validate.calls"] > 0
