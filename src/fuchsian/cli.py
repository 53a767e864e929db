"""Command-line surface: JSON in, JSON (or text) out, deterministic always.

Exit codes: 0 success; 1 malformed input or flags; 2 inconsistent instance
(inadmissible exponent sum, or momenta violating the quadratic constraints);
3 verification failure.  Exact numbers are serialized as "p/q" strings and
never as floats; the few genuinely float quantities (root finding for the
overdetermined case) are labeled as such in a separate output section.
"""

from __future__ import annotations

import argparse
import json
import sys

from .builder import FuchsViolation, VerificationFailed, construct, h_matrix
from .dimension import check_momenta, classify, quadratic_constraints, solve_under
from .frobenius import report_to_json_obj, verify
from .linalg import det
from .model import (
    InvalidInstance,
    equation_from_json_obj,
    equation_to_json_obj,
    instance_from_json_obj,
    instance_to_json_obj,
)
from .sampling import random_instance
from .scalars import ZERO, GaussianRational


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(args)
    except InvalidInstance as exc:
        _diag(f"invalid instance: {exc}")
        return 1
    except FuchsViolation as exc:
        _diag(f"inconsistent instance: {exc}")
        return 2
    except VerificationFailed as exc:
        _diag(f"verification failed: {exc}")
        return 3
    except OSError as exc:  # _load_json raises input errors as ValueError
        _diag(f"cannot write output: {exc}")
        return 1
    except ValueError as exc:
        _diag(str(exc))
        return 1


_INPUT_COMMANDS = ("construct", "verify", "analyze", "constraints")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchsian",
        description="Construct and verify second-order Fuchsian equations "
        "with prescribed exponents and apparent singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _HANDLERS}
    for name, p in commands.items():
        if name in _INPUT_COMMANDS:
            p.add_argument("-i", "--input", help="instance JSON file")
        p.add_argument("-o", "--output", help="write the payload here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
    commands["verify"].add_argument("-e", "--equation", help="equation JSON file")
    for name in ("det-check", "gen"):
        commands[name].add_argument("--n", type=int, help="number of finite prescribed points")
        commands[name].add_argument("--seed", type=int, default=0)
    commands["det-check"].add_argument("--trials", type=int, default=5)
    return parser


def _dispatch(args) -> int:
    handler = _HANDLERS[args.command]
    if args.command not in _INPUT_COMMANDS:
        return handler(args)
    if not args.input:
        _diag(f"{args.command} requires --input")
        return 1
    return handler(args, instance_from_json_obj(_load_json(args.input)))


def _load_json(path):
    """The parsed file; one that cannot be opened, decoded as UTF-8 or
    parsed, that holds an integer longer than int() converts, or that nests
    deeper than the parser's stack (RecursionError), raises ValueError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read input: {exc}") from None


def _cmd_construct(args, instance) -> int:
    report = classify(instance)
    if report.case == "square":
        eq = construct(instance)
    elif report.case == "over":
        result = check_momenta(instance)
        if not result.consistent:
            witness = ", ".join(f"constraint {j} evaluates to {v}" for j, v in result.violations)
            _diag(f"inconsistent instance: momenta violate the quadratic constraints ({witness})")
            return 2
        eq = result.equation
    else:
        # Free coefficients default to zero; pass explicit values through the API.
        eq = solve_under(instance, [ZERO] * report.h_free_dim)
    payload = equation_to_json_obj(eq)
    text = _poly_lines(("G", eq.g), ("H", eq.h))
    _emit(args, payload, text)
    return 0


def _cmd_verify(args, instance) -> int:
    if not args.equation:
        _diag("verify requires --equation")
        return 1
    eq = equation_from_json_obj(_load_json(args.equation), instance)
    report = verify(eq)
    payload = report_to_json_obj(report)
    text = _report_text(report)
    _emit(args, payload, text)
    return 0 if report.overall else 3


def _cmd_analyze(args, instance) -> int:
    report = classify(instance)
    text = (
        f"case={report.case} n={report.n} N={report.num_apparent} "
        f"free={report.h_free_dim} constraints={report.constraint_count} "
        f"dimension={report.total_dimension}\n"
    )
    _emit(args, report.to_json_obj(), text)
    return 0


def _cmd_constraints(args, instance) -> int:
    report = classify(instance)
    if report.case != "over":
        _diag(f"constraints requires an overdetermined instance; this one is {report.case}")
        return 1
    constraints = quadratic_constraints(instance)
    float_roots = [
        {"j": c.j, "roots": [[root.real, root.imag] for root in roots]}
        for c in constraints
        if (roots := c.float_roots()) is not None
    ]
    payload = {
        "constraints": [c.to_json_obj() for c in constraints],
        "float_roots": float_roots,
    }
    lines = []
    for c in constraints:
        terms = [f"({v})*p_{k}^2" for k, v in c.quad.items()]
        terms += [f"({v})*p_{k}" for k, v in c.lin.items()] + [f"({c.const_term})"]
        lines.append(f"constraint {c.j}: {' + '.join(terms)} = 0\n")
    _emit(args, payload, "".join(lines))
    return 0


def _cmd_det_check(args) -> int:
    if args.n is None or args.n < 2:
        _diag("det-check requires --n >= 2")
        return 1
    if args.trials < 1:
        _diag("det-check requires --trials >= 1")
        return 1
    results = []
    ratios = set()
    nonzero = True
    for k in range(args.trials):
        seed = args.seed + k
        instance = random_instance(args.n, seed=seed)
        value = det(h_matrix(instance))
        product = _node_product(instance)
        ratio = value / product
        ratios.add(ratio)
        if not value:
            nonzero = False
        results.append(
            {
                "seed": seed,
                "det": value.to_pair(),
                "product": product.to_pair(),
                "ratio": ratio.to_pair(),
            }
        )
    constant = len(ratios) == 1
    payload = {
        "n": args.n,
        "trials": args.trials,
        "results": results,
        "nonzero": nonzero,
        "ratio_constant": constant,
    }
    text = "".join(
        f"seed={r['seed']} det={r['det']} ratio={r['ratio']}\n" for r in results
    ) + f"ratio_constant={constant}\n"
    _emit(args, payload, text)
    return 0 if (constant and nonzero) else 3


def _cmd_gen(args) -> int:
    if args.n is None:
        _diag("gen requires --n")
        return 1
    instance = random_instance(args.n, seed=args.seed)  # main maps its ValueError to exit 1
    payload = instance_to_json_obj(instance)
    _emit(args, payload, json.dumps(payload, indent=2) + "\n")
    return 0


# Each command's handler, in --help order; input commands also take the instance.
_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "constraints": _cmd_constraints,
    "det-check": _cmd_det_check,
    "gen": _cmd_gen,
}


def _node_product(instance) -> GaussianRational:
    """prod (x_a - x_b)^(m_a m_b) over a < b, finite points first, m = 1 at
    each t and 3 at each q: the powers 1, 3 and 9 of t-t, t-q and q-q pairs."""
    nodes = [(t, 1) for t in instance.finite_positions]
    nodes += [(q, 3) for q in instance.apparent_positions]
    product = GaussianRational(1)
    for a, (x, m) in enumerate(nodes):
        for y, k in nodes[a + 1 :]:
            product = product * (x - y) ** (m * k)
    return product


def _poly_lines(*named) -> str:
    return "".join(f"{name} = {poly}\n" for name, poly in named)


def _report_text(report) -> str:
    lines = []
    for r in report.finite:
        lines.append(
            f"t={r.point}: expected {r.expected}, "
            f"sum={r.indicial.sum} product={r.indicial.product} "
            f"{'ok' if r.match else 'MISMATCH'}\n"
        )
    inf = report.infinity
    lines.append(
        f"infinity: expected {inf.expected}, sum={inf.indicial.sum} "
        f"product={inf.indicial.product} {'ok' if inf.match else 'MISMATCH'}\n"
    )
    for r in report.apparent:
        flags = []
        flags.append("residue ok" if r.residue_ok else f"residue {r.residue} BAD")
        flags.append("no double pole" if r.double_pole_absent else "double pole BAD")
        flags.append("momentum ok" if r.momentum_ok else f"momentum {r.momentum_recovered} BAD")
        flags.append("log-free" if r.log_free else "LOGARITHMIC")
        flags.append("residual ok" if r.residual_ok else "residual BAD")
        lines.append(f"q={r.point}: " + ", ".join(flags) + "\n")
    lines.append(f"overall: {'pass' if report.overall else 'fail'}\n")
    return "".join(lines)


def _emit(args, payload, text) -> None:
    body = text if args.format == "text" else json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)


def _diag(message: str) -> None:
    print(f"fuchsian: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
