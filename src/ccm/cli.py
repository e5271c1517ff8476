"""File-driven front end: ccm solve|verify|equitable|nash|commodify|match.

Problems and certificates are single JSON documents (schemas ship in
ccm/schemas).  Results go to stdout, diagnostics to stderr; exit codes
are part of the interface.  Certificates embed a hash of the problem
file so verify cannot be pointed at the wrong instance.

Each schema is compiled on first use into a plain predicate, and a
document that passes it is valid.  Only a document that fails it loads
jsonschema, which meta-checks the schema and reports its `best_match`
error, so a valid file is checked without importing jsonschema.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__ as VERSION
from . import exchange, market, matching, polytope, solutions
from .tolerances import EPS_LP

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INADMISSIBLE = 2
EXIT_NON_MEMBER = 3


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    with resources.files("ccm.schemas").joinpath(name).open("rb") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _predicate(name: str):
    """The compiled check of one shipped schema, built on first use."""
    # Imported here: without cached bytecode, parsing the compiler's source
    # raises the peak memory of every process that imports this module.
    from ._schemacheck import compile_schema

    return compile_schema(_schema(name))


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """The stock validator of one shipped schema, checked against its meta-schema once."""
    import jsonschema

    schema = _schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def schema_validate(doc, name: str) -> None:
    """Raise what `jsonschema.validate(doc, schema)` raises, without re-checking the schema.

    A document that passes the compiled predicate is valid.  Only one that
    fails it loads jsonschema, whose `best_match` error is raised.
    """
    if not _predicate(name)(doc):
        from jsonschema.exceptions import best_match

        error = best_match(_validator(name).iter_errors(doc))
        if error is not None:
            raise error


def _fail(message: str, code: int = EXIT_ERROR) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _num(x) -> float:
    try:
        v = float(x)
    except OverflowError:  # an integer beyond float range
        v = np.inf
    if not np.isfinite(v):
        raise ValueError("numbers must be finite")
    return v


def _matrix(rows) -> np.ndarray:
    """Rows of numbers or numeric strings, parsed as `float()` parses each one."""
    try:
        a = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond float range
        a = np.array(np.inf)
    except TypeError as exc:  # an entry that is neither a number nor a string
        raise ValueError(str(exc)) from None
    if not np.isfinite(a).all():
        raise ValueError("numbers must be finite")
    return a


def _load_problem(path: str) -> tuple[dict, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    schema_validate(doc, "problem.schema.json")
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return doc, digest


def _collective_of(doc: dict):
    kind = doc["type"]
    if kind == "collective":
        return market.CollectiveProblem(_matrix(doc["utilities"]))
    if kind == "matching":
        return matching.to_collective(_matching_of(doc))
    if kind == "economy":
        return exchange.to_collective_exchange(_economy_of(doc))
    raise ValueError(f"no collective form for problem type {kind!r}")


def _index(v, what: str, bound: int | None = None) -> int:
    """v, if it is a JSON integer, and in range(bound) if a bound is given.

    The schema's `integer` also admits integer-valued floats such as 1.0,
    and integers of any size.
    """
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, not {v!r}")
    if bound is not None and not 0 <= v < bound:
        raise ValueError(f"{what} {v} is out of range for {bound} agents")
    return v


def _matching_of(doc: dict) -> matching.MatchingProblem:
    w = _matrix(doc["weights"])
    groups = None
    if "groups" in doc:
        groups = tuple(tuple(_index(i, "group member") for i in g) for g in doc["groups"])
    matchings = tuple(
        tuple(_index(i, "matching entry", len(w)) for i in j) for j in doc["matchings"]
    )
    return matching.MatchingProblem(matchings=matchings, w=w, groups=groups)


def _economy_of(doc: dict) -> exchange.Economy:
    goods = tuple(doc["goods"])
    if doc["kind"] == "additive":
        return exchange.Economy(
            n=len(doc["weights"]), names=goods, kind="additive", weights=_matrix(doc["weights"])
        )
    bundles = doc["bundles"]
    agents = [_index(b["agent"], "bundle agent") for b in bundles]
    n = _index(doc["agents"], "agents") if "agents" in doc else 1 + max(agents)
    if n > len(bundles):  # some agent has no bundle; checked before its table is allocated
        raise ValueError("agent with no stake: zero value for the full bundle")
    triples = [
        (i, [_index(g, "bundle item") for g in b["items"]], _num(b["value"]))
        for i, b in zip(agents, bundles)
    ]
    return exchange.economy_from_bundle_values(n, goods, triples)


def _bargaining_of(doc: dict) -> polytope.Polytope:
    kind = doc["type"]
    if kind == "bargaining":
        return polytope.coco_hull(_matrix(doc["generators"]))
    if kind == "economy":
        return exchange.bargaining_of_economy(_economy_of(doc))
    return market.bargaining_of(_collective_of(doc))


def _emit(doc: dict, out: str | None) -> None:
    # The text of json.dump(doc, fh, sort_keys=True, indent=2), written piece
    # by piece so that a large sweep's certificate is never held in memory
    # as one string (`_write_json`).
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(fh, doc, "\n")
        fh.write("\n")


_NUMBERS = {float, int}


def _write_json(fh, value, pad: str) -> None:
    """Write value as json.dump(value, fh, sort_keys=True, indent=2) would, nested at pad.

    Dicts with string keys, and lists that hold anything but numbers, are
    written item by item.  A finite float or int is its repr in JSON, so a
    list of them is one C-level join, in place of the pure-Python
    encoder's work per number.  Anything else (a scalar, an empty
    container, a list holding inf or NaN) takes json.dumps, re-indented:
    its text holds no raw line break but those of the layout.
    """
    inner = pad + "  "
    kind = type(value)
    if kind is dict and value and set(map(type, value)) == {str}:
        for i, key in enumerate(sorted(value)):
            fh.write(("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(fh, value[key], inner)
        fh.write(pad + "}")
    elif kind is list and value and not set(map(type, value)) <= _NUMBERS:
        for i, item in enumerate(value):
            fh.write(("," if i else "[") + inner)
            _write_json(fh, item, inner)
        fh.write(pad + "]")
    elif kind is list and value and "n" not in (text := ("," + inner).join(map(repr, value))):
        fh.write("[" + inner + text + pad + "]")  # "n" is in inf and nan, which JSON spells otherwise
    else:
        fh.write(json.dumps(value, sort_keys=True, indent=2).replace("\n", pad))


def _lindahl_payload(cert: market.LindahlCertificate) -> dict:
    return {
        "p": cert.p.tolist(),
        "q": cert.q.tolist(),
        "payoffs": cert.payoffs.tolist(),
        "alpha": cert.alpha.tolist(),
        "c": cert.c.tolist(),
    }


def _base(kind: str, digest: str, tol: float) -> dict:
    return {
        "kind": kind,
        "version": VERSION,
        "problem_sha256": digest,
        "tolerances": {"eps_lp": tol},
    }


def _positive(tol: float) -> bool:
    return 0 < tol <= sys.float_info.max  # False for NaN, inf and integers beyond float range


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_num(x) for x in text.split(",")], dtype=float)


def cmd_solve(args) -> int:
    doc, digest = _load_problem(args.problem)
    if doc["type"] == "bargaining":
        return _fail("bargaining files have no market to solve; use nash or equitable")
    tol = EPS_LP if args.tol is None else args.tol
    if not _positive(tol):
        return _fail("the tolerance must be a positive finite number")
    if args.sweep is not None and args.sweep < 1:
        return _fail("--sweep needs a positive number of grid steps")
    if args.sweep is not None and args.c is not None:
        return _fail("--c and --sweep exclude each other: a sweep chooses its own shifts")
    P = _collective_of(doc)
    if args.sweep is not None:
        certs = market.sweep_lindahl_payoffs(P, grid_steps=args.sweep, tol=tol)
        payload = _base("lindahl_sweep", digest, tol)
        payload["certificates"] = [_lindahl_payload(c) for c in certs]
        payload["payoffs"] = [c.payoffs.tolist() for c in certs]
        _emit(payload, args.out)
        return EXIT_OK
    c = _parse_vector(args.c) if args.c else np.zeros(P.n)
    if c.shape != (P.n,):
        return _fail("shift vector has the wrong length")
    cert = market.lindahl_from_nash(P, c, tol)
    if cert is None:
        return _fail("shift vector is inadmissible at its Nash allocation", EXIT_INADMISSIBLE)
    payload = _base("lindahl", digest, tol)
    payload.update(_lindahl_payload(cert))
    if doc["type"] == "matching":
        M = _matching_of(doc)
        pi, xi, q = matching.lindahl_to_walras(M, cert.p, cert.q, tol)
        payload["kind"] = "walras_matching"
        payload["pi"] = pi.tolist()
        payload["xi"] = xi.tolist()
        payload["lints"] = matching.price_coherence_lint(M, cert.p, cert.q)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc, digest = _load_problem(args.problem)
    with open(args.certificate) as fh:
        cert = json.load(fh)
    schema_validate(cert, "certificate.schema.json")
    if cert["problem_sha256"] != digest:
        return _fail("certificate does not match this problem (stale hash)")
    tol = cert["tolerances"].get("eps_lp", EPS_LP) if args.tol is None else args.tol
    if not _positive(tol):
        return _fail("the tolerance must be a positive finite number")
    try:
        report = _reverify(doc, cert, tol)
    except OverflowError:  # an integer beyond float range; the schema's "number" admits it
        return _fail("numbers must be finite")
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_ERROR


def _verdict_json(verdict, extra=()) -> dict:
    violations = [*verdict.violations, *extra]
    return {
        "passed": verdict.passed and not extra,
        "violations": [
            {"condition": v.condition, "agent": v.agent, "residual": v.residual}
            for v in violations
        ],
    }


def _payoff_violations(P, cert: dict, tol: float, listed=None) -> list[market.Violation]:
    """`payoffs` = u q on the collective form, and `alpha` + `c` = `payoffs`, where given.

    `listed` is a sweep's top-level payoff row for this certificate, held
    to u q as well.  Agent i's gaps are judged in its utility units, within
    tol times its largest utility, as `verify_lindahl` judges consumer optimality.
    """
    vector = polytope.as_point  # 1-d, finite, of the given length
    value = P.u @ vector(cert["q"], P.k)
    gaps = {}
    if "payoffs" in cert:
        payoffs = vector(cert["payoffs"], P.n)
        gaps["payoffs"] = payoffs - value
        if "alpha" in cert and "c" in cert:
            gaps["payoff_split"] = vector(cert["alpha"], P.n) + vector(cert["c"], P.n) - payoffs
    if listed is not None:
        gaps["listed_payoffs"] = vector(listed, P.n) - value
    limit = tol * P.u.max(axis=1)
    return [
        market.Violation(condition, i, float(abs(g)))
        for condition, gap in gaps.items()
        for i, g in enumerate(gap)
        if abs(g) > limit[i]
    ]


def _witness_holds(B: polytope.Polytope, x: np.ndarray, witness) -> bool:
    """True iff `witness` is a simplex game that `solutions.validate_certificate` accepts at x."""
    try:
        game = polytope.SimplexGame(witness["scale"], witness["base"])
    except (TypeError, KeyError, ValueError):
        return False
    if game.dim != B.dim:
        return False
    cert = solutions.EquitabilityCertificate(game, polytope.fair_outcome(game))
    return solutions.validate_certificate(B, x, cert)


def _reverify(doc: dict, cert: dict, tol: float) -> dict:
    kind = cert["kind"]
    if kind == "lindahl":
        P = _collective_of(doc)
        verdict = market.verify_lindahl(P, _matrix(cert["p"]), np.array(cert["q"]), tol)
        return _verdict_json(verdict, _payoff_violations(P, cert, tol))
    if kind == "lindahl_sweep":
        P = _collective_of(doc)
        certs = cert["certificates"]
        listed = cert.get("payoffs", [None] * len(certs))
        if len(listed) != len(certs):
            raise ValueError("the payoff list and the certificates differ in length")
        # Each certificate's input checks run in file order; then one
        # batched equilibrium check covers them all, as the sweep's own does.
        p, q, extra = np.empty((len(certs), P.n, P.k)), np.empty((len(certs), P.k)), []
        for r, (c, row) in enumerate(zip(certs, listed)):
            p[r], q[r] = market._lindahl_inputs(P, _matrix(c["p"]), np.array(c["q"]))
            extra.append(_payoff_violations(P, c, tol, row))
        found = market._lindahl_violations(P, p, q, tol)
        out = [_verdict_json(market.Verdict(not v, v), e) for v, e in zip(found, extra)]
        return {"passed": all(v["passed"] for v in out), "certificates": out}
    if kind == "walras_matching":
        M = _matching_of(doc)
        verdict = matching.verify_walras_matching(
            M, _matrix(cert["pi"]), _matrix(cert["xi"]), np.array(cert["q"]), tol
        )
        return _verdict_json(verdict, _payoff_violations(matching.to_collective(M), cert, tol))
    if kind == "walras_exchange":
        E = _economy_of(doc)
        prices = _prices_from_json(E, cert["prices"])
        theta = exchange.RandomAllocation(
            tuple(cert["theta"]["weights"]),
            tuple(tuple(a) for a in cert["theta"]["allocations"]),
        )
        verdict = exchange.verify_walras_exchange(E, prices, theta, tol)
        return _verdict_json(verdict)
    if kind == "equitable":
        # A member passes on its stored witness; a non-member when x is
        # outside B or the decision finds no witness either.
        B = _bargaining_of(doc)
        x = polytope.as_point(cert["point"], B.dim)
        if cert["status"] == solutions.MEMBER and _witness_holds(B, x, cert.get("witness")):
            return {"passed": True, "status": solutions.MEMBER}
        inside = polytope.contains(B, x)
        status = solutions.equitable_contains(B, x).status if inside else solutions.NON_MEMBER
        return {"passed": cert["status"] == status == solutions.NON_MEMBER, "status": status}
    if kind == "nash":
        if doc["type"] == "bargaining":
            B = _bargaining_of(doc)
            resid = _point_nash_residual(B, np.array(cert["point"], dtype=float))
            return {"passed": resid is not None and abs(resid) <= 1e-8, "kkt_residual": resid}
        P = _collective_of(doc)
        q = np.array(cert["q"])
        resid = _nash_residual(P, q)
        found = _payoff_violations(P, cert, tol)
        report = _verdict_json(market.Verdict(bool(resid <= 1e-8)), found)
        report["kkt_residual"] = resid
        return report
    raise ValueError(f"unknown certificate kind {kind!r}")


def _prices_from_json(E: exchange.Economy, obj: dict) -> exchange.PackagePrices:
    if "additive" in obj:
        return exchange.PackagePrices(names=E.names, additive=np.array(obj["additive"], float))
    return exchange.PackagePrices(names=E.names, table=np.array(obj["table"], float))


def _nash_residual(P: market.CollectiveProblem, q: np.ndarray) -> float:
    x = P.u @ q
    phi = (P.u / x[:, None]).sum(axis=0)
    over = float(phi.max() - P.n)
    on = float(np.abs(np.where(q > 1e-8, phi - P.n, 0.0)).max())
    return max(over, on) / P.n


def _point_nash_residual(B: polytope.Polytope, x: np.ndarray) -> float | None:
    """(max_j sum_i (g_j - d)_i / (x_i - d_i) - n) / n over the generators g_j.

    None unless x lies in B strictly above d.  For such x the residual is
    nonnegative and zero exactly when x maximizes sum_i log(x_i - d_i) over
    B.  Outside B it can be zero too (any x whose tangent hyperplane
    supports B at a vertex), hence the membership test.
    """
    d = B.disagreement
    if x.shape != d.shape:
        raise ValueError("point has the wrong length")
    if np.any(x <= d) or not polytope.contains(B, x):
        return None
    phi = ((B.generators - d) / (x - d)).sum(axis=1)
    return float((phi.max() - B.dim) / B.dim)


def cmd_equitable(args) -> int:
    doc, digest = _load_problem(args.problem)
    B = _bargaining_of(doc)
    x = _parse_vector(args.point)
    payload = _base("equitable", digest, EPS_LP)
    payload.update({"point": x.tolist(), "status": solutions.NON_MEMBER, "witness": None})
    if not polytope.contains(B, x):
        payload["reason"] = "not feasible"
        _emit(payload, args.out)
        return EXIT_NON_MEMBER
    verdict = solutions.equitable_contains(B, x)
    payload["status"] = verdict.status
    if verdict.is_member:
        game = verdict.certificate.witness
        payload["witness"] = {"scale": game.scale.tolist(), "base": game.base.tolist()}
    _emit(payload, args.out)
    return EXIT_OK if verdict.is_member else EXIT_NON_MEMBER


def cmd_nash(args) -> int:
    doc, digest = _load_problem(args.problem)
    payload = _base("nash", digest, EPS_LP)
    if doc["type"] == "bargaining":
        B = _bargaining_of(doc)
        point = solutions.nash_solution(B)
        payload.update(
            {"point": point.tolist(), "q": [], "kkt_residual": _point_nash_residual(B, point)}
        )
    else:
        P = _collective_of(doc)
        q = market.nash_allocation(P)
        payload.update(
            {
                "q": q.tolist(),
                "payoffs": (P.u @ q).tolist(),
                "kkt_residual": _nash_residual(P, q),
            }
        )
    _emit(payload, args.out)
    return EXIT_OK


def cmd_commodify(args) -> int:
    doc, _ = _load_problem(args.problem)
    if doc["type"] != "bargaining":
        return _fail("commodify expects a bargaining problem file")
    B = _bargaining_of(doc)
    if args.mode == "two":
        E = exchange.commodify_two(B)
        out = {
            "type": "economy",
            "kind": "additive",
            "goods": list(E.names),
            "weights": [[repr(float(x)) for x in row] for row in E.weights],
        }
    else:
        E = exchange.commodify_general(B)
        out = {
            "type": "economy",
            "kind": "table",
            "goods": list(E.names),
            "agents": E.n,
            "bundles": _sparse_bundles(E),
        }
    _emit(out, args.out)
    return EXIT_OK


def _sparse_bundles(E: exchange.Economy) -> list[dict]:
    """Minimal bundle values that regenerate the table by free disposal."""
    table = E.value_table()
    out = []
    for i in range(E.n):
        for lvl in sorted({float(v) for v in table[i] if v > 0}):
            for mask in exchange._minimal_bundles(table[i], lvl, E.r):
                if abs(table[i][mask] - lvl) <= 1e-12:
                    out.append(
                        {
                            "agent": i,
                            "items": [b for b in range(E.r) if mask >> b & 1],
                            "value": repr(lvl),
                        }
                    )
    return out


def cmd_match(args) -> int:
    doc, digest = _load_problem(args.problem)
    if doc["type"] != "matching":
        return _fail("match expects a matching problem file")
    M = _matching_of(doc)
    P = matching.to_collective(M)
    c = _parse_vector(args.c) if args.c else np.zeros(P.n)
    cert = market.lindahl_from_nash(P, c)
    if cert is None:
        return _fail("shift vector is inadmissible at its Nash allocation", EXIT_INADMISSIBLE)
    pi, xi, q = matching.lindahl_to_walras(M, cert.p, cert.q)
    p_back, q_back = matching.walras_to_lindahl(M, pi, xi, q)
    payload = _base("walras_matching", digest, EPS_LP)
    payload.update(
        {
            "pi": pi.tolist(),
            "xi": xi.tolist(),
            "q": q.tolist(),
            "payoffs": cert.payoffs.tolist(),
            "p": p_back.tolist(),
            "lints": matching.price_coherence_lint(M, cert.p, cert.q),
            "round_trip_payoff_gap": float(
                np.abs(P.u @ q_back - cert.payoffs).max()
            ),
        }
    )
    _emit(payload, args.out)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """Built once: a parser is a graph of reference cycles that only the
    cyclic garbage collector frees, so one per call piles up between its runs."""
    parser = argparse.ArgumentParser(prog="ccm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem")
        p.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="solve for a Lindahl equilibrium")
    common(p_solve)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--c", default=None, help="utility shift vector, comma separated")
    p_solve.add_argument("--sweep", type=int, default=None, help="sweep grid steps per axis")

    p_verify = sub.add_parser("verify", help="re-check a certificate")
    common(p_verify)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("certificate")

    p_eq = sub.add_parser("equitable", help="equitable-set membership")
    common(p_eq)
    p_eq.add_argument("--point", required=True, help="payoff vector, comma separated")

    common(sub.add_parser("nash", help="Nash allocation / bargaining point"))

    p_com = sub.add_parser("commodify", help="realize a bargaining set as an economy")
    common(p_com)
    p_com.add_argument("--mode", choices=["two", "general"], default="two")

    p_match = sub.add_parser("match", help="matching pipeline with both verifications")
    common(p_match)
    p_match.add_argument("--c", default=None)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up per call, so a rebound cmd_* function takes effect.
        return globals()[f"cmd_{args.command}"](args)
    # The tuple is built only once an exception arrives.  A ValidationError
    # comes only from schema_validate, which has loaded jsonschema by then;
    # until it is loaded, ValueError stands in for it.
    except (
        ValueError,
        OSError,
        KeyError,
        json.JSONDecodeError,
        getattr(sys.modules.get("jsonschema"), "ValidationError", ValueError),
    ) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
