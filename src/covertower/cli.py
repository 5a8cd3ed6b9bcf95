"""Command-line surface.

Exit codes, each non-zero one with a single `error:` line on stderr except
for 2:
  0  success;
  1  bad input: a usage error, a parameter out of range, an undefined
     operation on the input, a malformed presentation, an unreadable file;
  2  a verification against the reference values came out red;
  3  a resource guard tripped (for example the p-quotient layer width, or
     a field F_q with q = p^m, m > 1 and q above finfield.MAX_TABLE_ORDER,
     whose log tables would not fit; a survey stops at the first such q);
  4  an internal invariant failed: a bug, not bad input.
"""

import argparse
import json
import os
import sys

from .arith import is_prime
from .cache import append_q_records, cache_path, read_cache
from .errors import (
    DomainError,
    InternalInvariantError,
    MalformedWordError,
    ParameterError,
    ResourceError,
)
from .fpcore.sparse import DENSE_MODULUS_BOUND
from .fpcore.words import parse_presentation
from .pquotient import (
    dk_series_and_classify,
    exhaustion_check,
    growth_label,
    is_p_powerful,
    p_quotient,
    witt_cumulative,
)
from .quatlab import (
    injrad_lower_bound,
    kummer_residues,
    local_layer_orders,
    numeric_embedding_check,
    verify_order_closure,
    verify_presentation_units,
    volume_constant,
)
from .twistknot import (
    OrbifoldSpec,
    aggregate_records,
    compute_q_records,
    prime_powers_up_to,
    record_dict,
    cover_betti,
    enumerate_epimorphisms,
)

CACHE_ENV = "COVERTOWER_CACHE_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    ap = _Parser(prog="covertower")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ts = sub.add_parser("twist-survey", help="survey covers of one twist-knot orbifold")
    ts.add_argument("-n", type=int, required=True, help="twist parameter")
    ts.add_argument("-k", type=int, required=True, help="cone order")
    ts.add_argument("--qmax", type=int, default=500)
    ts.add_argument("--proxy-prime", type=int, default=31991)
    ts.add_argument("--second-prime", type=int, default=None)
    ts.add_argument("--exact-k", action="store_true")
    ts.add_argument("--tasks", type=int, default=1)
    ts.add_argument("--cache-dir", default=None)
    ts.add_argument("--format", choices=("csv", "json"), default="csv")
    ts.add_argument("--output", default=None, help="write the report here")

    tc = sub.add_parser("twist-cover", help="classes and cover homology for one (n,k,q)")
    tc.add_argument("-n", type=int, required=True)
    tc.add_argument("-k", type=int, required=True)
    tc.add_argument("-q", type=int, required=True)
    tc.add_argument("--proxy-prime", type=int, default=31991)
    tc.add_argument("--exact-k", action="store_true")

    sub.add_parser("quat-verify", help="order closure, unit relators, embedding")

    ll = sub.add_parser("local-layers", help="unit-filtration quotient orders")
    ll.add_argument("--nmax", type=int, default=4)

    vo = sub.add_parser("volume", help="hyperbolic volume of the base orbifold")
    vo.add_argument("--terms", type=int, default=10**7)

    bo = sub.add_parser("bounds", help="trace floor / geodesic length bounds")
    bo.add_argument("--levels", type=int, default=12)

    sub.add_parser("kummer", help="cube-residue obstruction mod 9")

    pq = sub.add_parser("pq", help="lower exponent-p central layer ranks")
    pq.add_argument("path", help="presentation file, or a directory for batch mode")
    pq.add_argument("-p", type=int, required=True)
    pq.add_argument("--class", dest="max_class", type=int, default=5)
    pq.add_argument("--output", default=None)

    pw = sub.add_parser("powerful", help="p-powerful test for a presentation")
    pw.add_argument("path")
    pw.add_argument("-p", type=int, required=True)

    ex = sub.add_parser("exhaust", help="rational-homology-sphere exhaustion hypotheses")
    ex.add_argument("path")
    ex.add_argument("-p", type=int, required=True)
    ex.add_argument("-n", type=int, required=True, help="ramified prime norm exponent")
    ex.add_argument("--h1-order", type=int, default=None)

    wi = sub.add_parser("witt", help="cumulative Witt rank for the free group of rank 2")
    wi.add_argument("k", type=int)
    return ap


def _load_presentation(path):
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _q_task(task):
    """(q, class records) for one (n, k, q, proxy_prime, second_prime,
    exact_k) work item; importable for worker pools."""
    return task[2], compute_q_records(*task)


def _check_proxy_primes(*primes):
    for prime in primes:
        if prime is None:
            continue
        if not is_prime(prime):
            raise ParameterError(f"proxy prime {prime} is not prime")
        if prime >= DENSE_MODULUS_BOUND:
            raise ParameterError(f"proxy prime {prime} is not below 2^31")


def _run_survey(args) -> int:
    spec = OrbifoldSpec(args.n, args.k)
    _check_proxy_primes(args.proxy_prime, args.second_prime)
    if args.qmax < 2:
        print("error: --qmax must be >= 2", file=sys.stderr)
        return 1
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    config = {
        "exact_k": args.exact_k,
        "proxy_prime": args.proxy_prime,
        "second_prime": args.second_prime,
    }
    plan = [(spec.n, spec.k, q) for q in prime_powers_up_to(args.qmax)]
    records = []
    path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = cache_path(cache_dir, spec.n, spec.k)
        done, cached, _ = read_cache(path, config)
        plan = [item for item in plan if item not in done]
        records.extend(cached)
    tasks = [
        (spec.n, spec.k, q, args.proxy_prime, args.second_prime, args.exact_k)
        for (_, _, q) in plan
    ]

    def finish(q, part):
        # each q reaches the cache as soon as it is done, so a crash loses
        # only the unfinished ones
        if path:
            append_q_records(path, spec.n, spec.k, q, part, config)
        records.extend(part)

    if args.tasks > 1 and tasks:
        import multiprocessing as mp

        with mp.Pool(args.tasks) as pool:
            for q, part in pool.imap_unordered(_q_task, tasks):
                finish(q, part)
    else:
        for task in tasks:
            finish(*_q_task(task))
    report = aggregate_records(
        spec.n,
        spec.k,
        args.qmax,
        records,
        args.proxy_prime,
        args.second_prime,
        args.exact_k,
    )
    if args.format == "csv":
        text = report.csv_header() + "\n" + report.csv_row() + "\n"
    else:
        text = (
            json.dumps(
                {
                    "n": report.n,
                    "k": report.k,
                    "q_max": report.q_max,
                    "classes_total": report.classes_total,
                    "classes_positive": report.classes_positive,
                    "percent": round(report.percent, 4),
                    "exceptional_norms": report.exceptional_norms,
                    "flagged_positive_norms": report.flagged_positive_norms,
                    "records": report.records,
                },
                sort_keys=True,
            )
            + "\n"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"classes_total={report.classes_total}")
    print(f"classes_positive={report.classes_positive}")
    print(f"percent={report.percent:.4f}")
    print(",".join(str(q) for q in report.exceptional_norms))
    if report.flagged_positive_norms:
        print(
            "non-canonical component positives: "
            + ",".join(str(q) for q in report.flagged_positive_norms)
        )
    return 0


def _run_cover(args) -> int:
    spec = OrbifoldSpec(args.n, args.k)
    _check_proxy_primes(args.proxy_prime)
    classes = enumerate_epimorphisms(spec, args.q, exact_k=args.exact_k)
    for epi in classes:
        rec = cover_betti(epi, args.proxy_prime)
        d = record_dict(epi, rec)
        print(json.dumps(d, sort_keys=True))
    print(f"classes={len(classes)}")
    return 0


def _run_quat_verify() -> int:
    closure = verify_order_closure()
    units = verify_presentation_units()
    emb = numeric_embedding_check(1e-10)
    ok = closure["closed"] and units["ok"] and emb["ok"]
    print(
        json.dumps(
            {
                "order_closure": closure["closed"],
                "presentation_units": units,
                "embedding": emb["checks"],
                "ok": ok,
            },
            sort_keys=True,
        )
    )
    return 0 if ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "twist-survey":
            return _run_survey(args)
        if args.cmd == "twist-cover":
            return _run_cover(args)
        if args.cmd == "quat-verify":
            return _run_quat_verify()
        if args.cmd == "local-layers":
            rep = local_layer_orders(args.nmax)
            print(json.dumps(rep, sort_keys=True))
            ok = rep["unit_quotient_order"] == 8 and all(
                v == (9 if n % 2 else 3) for n, v in enumerate(rep["layers"], start=1)
            )
            return 0 if ok else 2
        if args.cmd == "volume":
            res = volume_constant(args.terms)
            print(f"{res.value:.15f}")
            print(f"norm-one cover: {res.value_norm_one_cover:.15f}")
            return 0
        if args.cmd == "bounds":
            print("level,trace_floor,length_bound,injrad_bound")
            for n in range(1, args.levels + 1):
                b = injrad_lower_bound(n)
                print(f"{n},{b.trace_floor:.6f},{b.length_bound:.6f},{b.injrad_bound:.6f}")
            return 0
        if args.cmd == "kummer":
            rep = kummer_residues()
            print(json.dumps(rep, sort_keys=True))
            return 0 if rep["one_absent"] and rep["residues"] == [4, 5] else 2
        if args.cmd == "pq":
            return _run_pq(args)
        if args.cmd == "powerful":
            pres = _load_presentation(args.path)
            print(is_p_powerful(pres, args.p))
            return 0
        if args.cmd == "exhaust":
            pres = _load_presentation(args.path)
            v = exhaustion_check(pres, args.p, args.n, args.h1_order)
            print(
                json.dumps(
                    {
                        "hypotheses": v.hypotheses,
                        "conclusion": v.conclusion,
                        "witnesses": v.witnesses,
                    },
                    sort_keys=True,
                )
            )
            return 0
        if args.cmd == "witt":
            print(witt_cumulative(args.k))
            return 0
    except (ParameterError, DomainError, MalformedWordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"error: resource guard tripped: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"error: internal invariant failed (a bug): {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


def _run_pq(args) -> int:
    if os.path.isdir(args.path):
        names = sorted(
            f for f in os.listdir(args.path) if not f.startswith(".")
        )
        lines = []
        header = (
            "name,p,"
            + ",".join(f"d{i}" for i in range(1, args.max_class + 1))
            + ",label,p_powerful"
        )
        lines.append(header)
        for name in names:
            pres = _load_presentation(os.path.join(args.path, name))
            ranks, label = dk_series_and_classify(pres, args.p, args.max_class)
            ds = list(ranks) + [0] * (args.max_class - len(ranks))
            powerful = is_p_powerful(pres, args.p)
            lines.append(
                f"{name},{args.p},"
                + ",".join(str(d) for d in ds)
                + f",{label},{powerful}"
            )
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(text, end="")
        return 0
    pres = _load_presentation(args.path)
    G, ranks = p_quotient(pres, args.p, args.max_class)
    print(
        json.dumps(
            {
                "p": args.p,
                "ranks": list(ranks),
                "order_exponent": G.ngens,
                "label": growth_label(ranks),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
