"""Command-line entry point.

One executable, five subcommands (enumerate, complex, homology,
tropicalize-model, tropicalize-plane), machine-readable output.  Numbers in
output are exact rational strings, never floats; every byte of output is a
deterministic function of the arguments.  --threads is validated and then
ignored: the work is pure Python and runs serially.

Exit codes: 0 success, 1 domain error (with a message on stderr), 2 usage.
An --output or --svg path that cannot be written, the empty path included,
is a domain error found before any computation.
Environment variables TROPMODULI_THREADS, TROPMODULI_MAX_GENERATORS,
TROPMODULI_FORMAT, and TROPMODULI_OUTPUT mirror the corresponding flags; an
empty variable counts as unset.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from . import homology as homology_mod
from .complexes import build_poset, hasse_dot, link_cells
from .enumeration import count_types, enumerate_types
from .errors import (
    ExtendedCurveError,
    GraphError,
    InternalConsistencyError,
    MalformedModelError,
    RejectedModelError,
    ResourceBoundExceeded,
    UnstableTypeError,
)
from .graphs import _edge_group
from .metric import StableModelDescription, tropicalize_model
from .plane import TropicalPolynomial, _tropical_curve, newton_subdivision, render_svg

_DOMAIN_ERRORS = (
    GraphError,
    UnstableTypeError,
    MalformedModelError,
    RejectedModelError,
    ExtendedCurveError,
    ResourceBoundExceeded,
    InternalConsistencyError,
)


class _EnvironmentUsageError(Exception):
    """A TROPMODULI_* variable that its flag would refuse."""


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _count(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return value


def _svg_side(text: str) -> int:
    value = _integer(text)
    if value < 16:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 16, got {text!r}"
        )
    return value


def _env(name: str, cast, fallback):
    raw = os.environ.get(f"TROPMODULI_{name}")
    if raw is None or raw == "":
        return fallback
    try:
        return cast(raw)
    except argparse.ArgumentTypeError as exc:
        raise _EnvironmentUsageError(f"TROPMODULI_{name}: {exc}") from None


def _dump_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing to path would raise, before any work.

    Neither creates nor truncates the file: an existing file must be
    writable, a new one needs a writable directory, and the empty path names
    no file at all.
    """
    if path is None:
        return
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(path) or os.curdir
        if not os.path.exists(parent):
            code = errno.ENOENT
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _write(pieces, path: str | None) -> None:
    """Write the pieces of text in order to path, or to stdout without one."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


# The JSON that enumerate and complex print grows with the catalog, so it is
# written in pieces, straight from the canonical triples, in the layout of
# json.dumps(..., indent=2).  Whatever can fail is computed before the first
# piece: the pieces only format.

_FACE_BATCH = 1000


def _json_list(pieces, pad: str):
    """Yield a JSON list as json.dumps(..., indent=2) prints it with its
    bracket at indent pad.  A piece is one rendered item, or several joined
    by the item separator ",\n" + pad + "  "."""
    first = True
    for piece in pieces:
        yield f"[\n{pad}  {piece}" if first else f",\n{pad}  {piece}"
        first = False
    yield "[]" if first else f"\n{pad}]"


def _inline_list(items, pad: str) -> str:
    return "".join(_json_list(items, pad))


def _graph_json(weights, edges, markings, pad: str) -> str:
    """A (weights, edges, markings) graph as json.dumps(to_json_dict(),
    indent=2) prints it with its brace at indent pad."""
    key, item = pad + "  ", pad + "    "
    inner = item + "  "
    vertices = [
        f'{{\n{inner}"id": {v},\n{inner}"weight": {w}\n{item}}}'
        for v, w in enumerate(weights)
    ]
    pairs = [f"[\n{inner}{u},\n{inner}{v}\n{item}]" for u, v in edges]
    return (
        f'{{\n{key}"vertices": {_inline_list(vertices, key)},'
        f'\n{key}"edges": {_inline_list(pairs, key)},'
        f'\n{key}"markings": {_inline_list(map(str, markings), key)}\n{pad}}}'
    )


def _enumerate_json(catalog):
    yield (
        f'{{\n  "g": {catalog.g},\n  "n": {catalog.n},\n  "count": {catalog.count},'
        f'\n  "f_vector": {_inline_list(map(str, catalog.f_vector), "  ")},'
        '\n  "types": '
    )
    yield from _json_list((_graph_json(*key, "    ") for key in catalog.keys), "  ")
    yield "\n}\n"


def _complex_json(link):
    """The complex JSON of a link, in pieces.  Cell i is type i + 1 and the
    cone point is -1.  The covers and the edge groups, from the vertex
    automorphisms that the link keeps, are computed here, so a failure comes
    before the first piece."""
    covers = link.covers
    types = link.keys[1:]
    groups = [_edge_group(key[1], link.groups.get(key, ())) for key in types]

    cells = (
        f'{{\n      "index": {i},\n      "dimension": {len(key[1]) - 1},'
        f'\n      "edge_group_order": {group.order},'
        f'\n      "has_odd_element": {"true" if group.has_odd_element else "false"},'
        f'\n      "graph": {_graph_json(*key, "      ")}\n    }}'
        for i, (key, group) in enumerate(zip(types, groups))
    )
    faces = (
        ",\n    ".join(
            f"[\n      {p - 1},\n      {c - 1},\n      {e}\n    ]"
            for p, c, e in covers[start:start + _FACE_BATCH]
        )
        for start in range(0, len(covers), _FACE_BATCH)
    )

    def pieces():
        yield (
            f'{{\n  "g": {link.g},\n  "n": {link.n},'
            f'\n  "link_dimension": {link.dimension()},'
            f'\n  "num_cells": {len(types)},\n  "cells": '
        )
        yield from _json_list(cells, "  ")
        yield ',\n  "faces": '
        yield from _json_list(faces, "  ")
        yield "\n}\n"

    return pieces()


_FORMATS = {
    "enumerate": ("json", "dot", "csv"),
    "complex": ("json", "dot"),
    "homology": ("json", "csv"),
    "tropicalize-model": ("json", "dot"),
    "tropicalize-plane": ("json",),
}


def _check_env_format(args) -> None:
    """argparse checks --format but not its environment default."""
    formats = _FORMATS[args.command]
    if args.format not in formats:
        raise _EnvironmentUsageError(
            f"TROPMODULI_FORMAT: expected one of {', '.join(formats)}, "
            f"got {args.format!r}"
        )


def _add_common(parser, command) -> None:
    parser.add_argument(
        "--format",
        choices=_FORMATS[command],
        default=_env("FORMAT", str, "json"),
        help="output format (default json; env TROPMODULI_FORMAT)",
    )
    parser.add_argument(
        "--threads",
        type=_count,
        default=_env("THREADS", _count, 1),
        help="accepted for compatibility and ignored: the work runs serially",
    )
    parser.add_argument(
        "--output",
        default=_env("OUTPUT", str, None),
        help="write to this path instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmoduli",
        description=(
            "Exact computations with stable weighted marked graphs, tropical "
            "moduli complexes, their rational homology, and tropical curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="catalog all stable types of genus g with n markings"
    )
    p_enum.add_argument("--genus", type=int, required=True)
    p_enum.add_argument("--markings", type=int, required=True)
    _add_common(p_enum, "enumerate")

    p_cx = sub.add_parser(
        "complex", help="face poset and link cells of the tropical moduli space"
    )
    p_cx.add_argument("--genus", type=int, required=True)
    p_cx.add_argument("--markings", type=int, required=True)
    _add_common(p_cx, "complex")

    p_hom = sub.add_parser(
        "homology", help="reduced rational homology of the link"
    )
    p_hom.add_argument("--genus", type=int, required=True)
    p_hom.add_argument("--markings", type=int, required=True)
    p_hom.add_argument(
        "--top-weight",
        action="store_true",
        help="report top-weight cohomology ranks in csv output",
    )
    p_hom.add_argument(
        "--max-generators",
        type=_count,
        default=_env("MAX_GENERATORS", _count, homology_mod.DEFAULT_MAX_GENERATORS),
        help=(
            "abort if the link has more surviving cells, the generators counted "
            "by the chain ranks, not the matrix columns (0 = no cap)"
        ),
    )
    _add_common(p_hom, "homology")

    p_model = sub.add_parser(
        "tropicalize-model", help="dual metric graph of a stable-model description"
    )
    p_model.add_argument("model", help="path to the model JSON file")
    p_model.add_argument(
        "--normalize-volume",
        action="store_true",
        help="rescale edge lengths to total volume 1",
    )
    _add_common(p_model, "tropicalize-model")

    p_plane = sub.add_parser(
        "tropicalize-plane", help="tropical plane curve of a polynomial"
    )
    p_plane.add_argument("poly", help="path to the polynomial JSON file")
    p_plane.add_argument("--svg", help="also render the curve to this SVG file")
    p_plane.add_argument(
        "--viewport",
        default="-5,-5,5,5",
        help="SVG viewport as xmin,ymin,xmax,ymax",
    )
    p_plane.add_argument("--size", type=_svg_side, default=400, help="SVG side length")
    _add_common(p_plane, "tropicalize-plane")

    return parser


def _run_enumerate(args) -> None:
    if args.format == "csv":
        # the f-vector alone: counted on S_n-orbits, no type is labelled
        lines = ["edges,count"]
        lines += [f"{e},{c}" for e, c in enumerate(count_types(args.genus, args.markings))]
        _write(["\n".join(lines) + "\n"], args.output)
        return
    catalog = enumerate_types(args.genus, args.markings, threads=args.threads)
    if args.format == "json":
        _write(_enumerate_json(catalog), args.output)
    else:
        blocks = [t.to_dot(name=f"type{i}") for i, t in enumerate(catalog.strata)]
        _write(blocks, args.output)


def _run_complex(args) -> None:
    if args.format == "dot":
        _write([hasse_dot(build_poset(args.genus, args.markings))], args.output)
    else:
        _write(_complex_json(link_cells(args.genus, args.markings)), args.output)


def _run_homology(args) -> None:
    cap = None if args.max_generators == 0 else args.max_generators
    profile = homology_mod.reduced_homology(args.genus, args.markings, max_generators=cap)
    top_weight = profile.top_weight()
    if args.format == "json":
        payload = {
            "g": profile.g,
            "n": profile.n,
            "chain_ranks": list(profile.chain_ranks[1:]),
            "betti": list(profile.reduced_betti[1:]),
            "euler": profile.euler_reduced,
            "top_weight": {str(k): r for k, r in sorted(top_weight.items())},
        }
        _write([_dump_json(payload)], args.output)
    else:
        if args.top_weight:
            lines = ["cohomological_degree,rank"]
            lines += [f"{k},{r}" for k, r in sorted(top_weight.items())]
        else:
            lines = ["degree,chain_rank,betti"]
            lines += [
                f"{p},{profile.chain_ranks[p + 1]},{profile.reduced_betti[p + 1]}"
                for p in range(0, profile.top_degree() + 1)
            ]
        _write(["\n".join(lines) + "\n"], args.output)


def _load_json(path: str, error_cls):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        # ValueError covers bad UTF-8 and integers over the digit limit
        except (ValueError, RecursionError) as exc:
            raise error_cls(f"{path} is not valid JSON: {exc}") from exc


def _run_tropicalize_model(args) -> None:
    data = _load_json(args.model, MalformedModelError)
    model = StableModelDescription.from_json_dict(data)
    metric = tropicalize_model(model)
    if args.normalize_volume:
        metric = metric.rescale_to_volume_one()
    if args.format == "json":
        _write([_dump_json(metric.to_json_dict())], args.output)
    else:
        _write([metric.to_dot()], args.output)


def _run_tropicalize_plane(args) -> None:
    data = _load_json(args.poly, GraphError)
    poly = TropicalPolynomial.from_json_dict(data)
    sub = newton_subdivision(poly)
    curve = _tropical_curve(poly, sub)
    payload = curve.to_json_dict()
    payload["newton_faces"] = [list(face) for face in sub.faces]
    if args.svg is not None:
        parts = [p.strip() for p in args.viewport.split(",")]
        try:
            viewport = tuple(float(p) for p in parts)
        except ValueError:
            viewport = ()
        if not all(map(math.isfinite, viewport)):
            viewport = ()
        if len(viewport) != 4 or viewport[0] >= viewport[2] or viewport[1] >= viewport[3]:
            raise GraphError("viewport must be finite xmin,ymin,xmax,ymax with min < max")
        _write([render_svg(curve, viewport=viewport, size=args.size)], args.svg)
    _write([_dump_json(payload)], args.output)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "complex": _run_complex,
    "homology": _run_homology,
    "tropicalize-model": _run_tropicalize_model,
    "tropicalize-plane": _run_tropicalize_plane,
}


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_env_format(args)
    except _EnvironmentUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_writable(args.output)
        _check_writable(getattr(args, "svg", None))
        _RUNNERS[args.command](args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
