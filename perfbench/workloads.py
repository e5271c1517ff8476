"""The three workloads: inputs, timed items, output digests and checks.

An item is the unit that is timed and checked.  Each workload builds its
items in set-up and names at least `min_rounds` whole rounds of them per
run; the runner times `run(i)`, keeps the first round's
outputs for `check(i, out)` and compares every later round's `digest`
with the first round's.  Items call ccm through module attributes at call
time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import inputs
import oracle

MEMBER = "member_with_certificate"
NON_MEMBER = "non_member_certified"
SHRINK = 0.9


def _sha(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _sweep_certificate_errors(u, certs, dedup) -> list[str]:
    """Every certificate, plus the payoff set's spacing and two-agent shape."""
    if not certs:
        return ["sweep returned no certificate"]
    errs = []
    for c in certs:
        errs += oracle.check_lindahl(u, c.p, c.q, c.payoffs)
        errs += oracle.check_weighted_efficiency(u, c.payoffs, c.alpha)
    payoffs = [c.payoffs for c in certs]
    errs += oracle.check_distinct(payoffs, dedup)
    if u.shape[0] == 2:
        errs += oracle.check_two_agent_payoffs(np.vstack([u.T, np.zeros(2)]), payoffs)
    return errs


def _certs_digest(certs) -> bytes:
    return _sha(*(a.tobytes() for c in certs for a in (c.p, c.q, c.payoffs, c.alpha, c.c)))


class Sweep:
    """One item: market.sweep_lindahl_payoffs on one corpus problem."""

    name = "sweep"
    # With an odd item count per round the median, and at three rounds the
    # tail, fall inside the repeats of one problem rather than between two
    # problems of different cost.
    corpus_slice = (0, 19)
    min_rounds = 3

    def __init__(self, ccm, seed, workdir):
        self.ccm = ccm
        lo, hi = self.corpus_slice
        relabel = np.random.default_rng([seed, 1])
        self.us = [inputs.relabel_columns(u, relabel) for u in inputs.corpus(hi)[lo:]]
        self.problems = [ccm.market.CollectiveProblem(u) for u in self.us]
        self.labels = [f"corpus[{lo + t}] n={u.shape[0]} k={u.shape[1]}" for t, u in enumerate(self.us)]

    def run(self, i):
        return self.ccm.market.sweep_lindahl_payoffs(
            self.problems[i], inputs.sweep_steps(self.us[i].shape[0])
        )

    def digest(self, i, out) -> bytes:
        return _certs_digest(out)

    def check(self, i, out) -> list[str]:
        return _sweep_certificate_errors(self.us[i], out, self.ccm.tolerances.PAYOFF_DEDUP)

    def check_setup(self) -> list[str]:
        return []


class Audit:
    """One item: equitable_contains then is_pareto_efficient on one payoff vector.

    Queries are the payoffs that sweeps of a corpus slice return (computed
    in set-up) and, for each, its shrink d + 0.9 (x - d).
    """

    name = "audit"
    corpus_slice = (9, 18)
    min_rounds = 1

    def __init__(self, ccm, seed, workdir):
        self.ccm = ccm
        lo, hi = self.corpus_slice
        relabel = np.random.default_rng([seed, 2])
        self.us = [inputs.relabel_columns(u, relabel) for u in inputs.corpus(hi)[lo:]]
        self.sweeps = []
        self.bargaining = []
        queries = []
        for t, u in enumerate(self.us):
            P = ccm.market.CollectiveProblem(u)
            certs = ccm.market.sweep_lindahl_payoffs(P, inputs.sweep_steps(u.shape[0]))
            self.sweeps.append(certs)
            self.bargaining.append(ccm.market.bargaining_of(P))
            d = np.zeros(u.shape[0])  # coco(columns of u, origin) with u >= 0
            for c in certs:
                queries.append((t, c.payoffs, True))
                queries.append((t, d + SHRINK * (c.payoffs - d), False))
        order = np.random.default_rng([seed, 3]).permutation(len(queries))
        self.queries = [queries[j] for j in order]
        self.labels = [
            f"corpus[{lo + t}] n={self.us[t].shape[0]} {'member' if m else 'shrink'}"
            for t, _, m in self.queries
        ]

    def run(self, i):
        t, x, _ = self.queries[i]
        B = self.bargaining[t]
        verdict = self.ccm.solutions.equitable_contains(B, x)
        return verdict, self.ccm.polytope.is_pareto_efficient(B, x)

    def digest(self, i, out) -> bytes:
        verdict, efficient = out
        cert = verdict.certificate
        witness = b"" if cert is None else cert.witness.scale.tobytes() + cert.witness.base.tobytes()
        return _sha(verdict.status, witness, efficient)

    def check(self, i, out) -> list[str]:
        t, x, member = self.queries[i]
        verdict, efficient = out
        u = self.us[t]
        if member:
            if verdict.status != MEMBER or not efficient:
                return [f"equilibrium payoff judged {verdict.status}, efficient={efficient}"]
            w = verdict.certificate.witness
            return oracle.check_witness(np.vstack([u.T, np.zeros(u.shape[0])]), x, w.scale, w.base)
        if verdict.status != NON_MEMBER or efficient:
            return [f"shrunk payoff judged {verdict.status}, efficient={efficient}"]
        if np.any(x <= 0):
            return ["shrunk payoff is not strictly below its equilibrium payoff"]
        return []

    def check_setup(self) -> list[str]:
        # The member queries' efficiency rests on these certificates.
        errs = []
        for u, certs in zip(self.us, self.sweeps):
            errs += _sweep_certificate_errors(u, certs, self.ccm.tolerances.PAYOFF_DEDUP)
        return errs


def call_cli(cli, argv):
    """One in-process `ccm` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Cli:
    """One item: one in-process ccm.cli.main(argv) call on a problem file."""

    name = "cli"
    min_rounds = 3

    def __init__(self, ccm, seed, workdir):
        self.ccm = ccm
        workdir = Path(workdir)
        data = Path(__file__).resolve().parent.parent / "tests" / "data"
        files = {Path(f).stem: data / f for f in inputs.FIXTURES}
        for stem, doc in inputs.cli_documents(seed).items():
            files[stem] = workdir / f"{stem}.json"
            files[stem].write_text(json.dumps(doc, indent=1))
        tamper = np.random.default_rng([seed, 4])
        self.docs = {}
        self.fresh = {}
        items = []
        for stem, path in files.items():
            doc = json.loads(path.read_text())
            self.docs[stem] = doc
            p = str(path)
            code, text, err = call_cli(ccm.cli, ["nash", p])
            if code != 0:
                raise RuntimeError(f"set-up nash on {stem} failed: {err}")
            nash = json.loads(text)
            x = np.array(nash["point"] if doc["type"] == "bargaining" else nash["payoffs"])
            d = oracle.generators_of(doc).min(axis=0)
            shrink = d + SHRINK * (x - d)
            items += [
                (stem, "nash", ["nash", p], {}),
                (stem, "equitable_member", ["equitable", p, "--point", _vec(x)], {"x": x}),
                (stem, "equitable_shrink", ["equitable", p, "--point", _vec(shrink)], {"x": x}),
            ]
            if doc["type"] != "bargaining":
                code, text, err = call_cli(ccm.cli, ["solve", p])
                if code != 0:
                    raise RuntimeError(f"set-up solve on {stem} failed: {err}")
                self.fresh[stem] = text
                cert = json.loads(text)
                fresh = workdir / f"{stem}.cert.json"
                fresh.write_text(text)
                agent = int(tamper.integers(len(cert["payoffs"])))
                key = "pi" if cert["kind"] == "walras_matching" else "p"
                cert[key][agent] = [2.0 * v for v in cert[key][agent]]
                tampered = workdir / f"{stem}.tampered.json"
                tampered.write_text(json.dumps(cert))
                items += [
                    (stem, "solve", ["solve", p], {}),
                    (stem, "verify_fresh", ["verify", p, str(fresh)], {}),
                    (stem, "verify_tampered", ["verify", p, str(tampered)], {"agent": agent}),
                ]
            if doc["type"] == "matching":
                items.append((stem, "match", ["match", p], {}))
            if doc["type"] == "bargaining" and len(doc["generators"][0]) == 2:
                items.append((stem, "commodify_two", ["commodify", p, "--mode", "two"], {}))
        order = np.random.default_rng([seed, 5]).permutation(len(items))
        self.items = [items[j] for j in order]
        self.labels = [f"{stem} {what}" for stem, what, _, _ in self.items]

    def run(self, i):
        return call_cli(self.ccm.cli, self.items[i][2])

    def digest(self, i, out) -> bytes:
        return _sha(out[0], out[1].encode())

    def check(self, i, out) -> list[str]:
        stem, what, _, expect = self.items[i]
        code, text, err = out
        doc = self.docs[stem]
        want = {"equitable_shrink": 3, "verify_tampered": 1}.get(what, 0)
        if code != want:
            return [f"{what} exited {code}, expected {want}: {err.strip()[:200]}"]
        res = json.loads(text)
        if what == "solve":
            if text != self.fresh[stem]:
                return ["solve output differs from the set-up certificate"]
            return oracle.check_lindahl(oracle.utilities_of(doc), res["p"], res["q"], res["payoffs"])
        if what == "verify_fresh":
            return [] if res["passed"] is True else [f"fresh certificate rejected: {res}"]
        if what == "verify_tampered":
            hit = any(
                v["condition"] == "budget" and v["agent"] == expect["agent"]
                for v in res.get("violations", [])
            )
            return [] if res["passed"] is False and hit else [f"tampered budget not reported: {res}"]
        if what == "nash":
            return _nash_errors(doc, res)
        if what == "equitable_member":
            if res["status"] != MEMBER or res["witness"] is None:
                return [f"Nash point judged {res['status']}"]
            w = res["witness"]
            return oracle.check_witness(oracle.generators_of(doc), expect["x"], w["scale"], w["base"])
        if what == "equitable_shrink":
            d = oracle.generators_of(doc).min(axis=0)
            if res["status"] != NON_MEMBER:
                return [f"shrunk Nash point judged {res['status']}"]
            return [] if np.all(expect["x"] > d) else ["Nash point not above the disagreement point"]
        if what == "match":
            if res["round_trip_payoff_gap"] != 0.0:
                return [f"match round trip payoff gap {res['round_trip_payoff_gap']!r}"]
            return oracle.check_lindahl(oracle.utilities_of(doc), res["p"], res["q"], res["payoffs"])
        if what == "commodify_two":
            return _commodify_errors(doc, res)
        return [f"no check for {what}"]

    def check_setup(self) -> list[str]:
        return []


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _nash_errors(doc, res) -> list[str]:
    if doc["type"] == "bargaining":
        G = oracle.generators_of(doc)
        resid = oracle.point_nash_residual(G, res["point"], G.min(axis=0))
    else:
        u = oracle.utilities_of(doc)
        q = np.array(res["q"])
        if np.abs(u @ q - np.array(res["payoffs"])).max() > oracle.TOL:
            return ["nash payoffs differ from u @ q"]
        resid = oracle.collective_nash_residual(u, q)
    return [] if resid <= oracle.NASH_TOL else [f"nash residual {resid!r}"]


def _commodify_errors(doc, res) -> list[str]:
    """The additive economy's feasible payoffs equal the bargaining set."""
    if res["type"] != "economy" or res["kind"] != "additive":
        return ["commodify --mode two did not return an additive economy"]
    if min(float(v) for row in res["weights"] for v in row) < 0:
        return ["negative weights"]
    G = oracle.generators_of(doc)
    E = np.vstack([oracle.economy_payoffs(res).T, np.zeros(2)])
    if np.abs(E.min(axis=0) - G.min(axis=0)).max() > oracle.TOL:
        return ["disagreement points differ"]
    a, b = oracle.frontier_chain_2d(G), oracle.frontier_chain_2d(E)
    if not all(oracle.below_chain(a, y) for y in b) or not all(oracle.below_chain(b, y) for y in a):
        return ["economy payoff set differs from the bargaining set"]
    return []


WORKLOADS = {w.name: w for w in (Sweep, Audit, Cli)}
