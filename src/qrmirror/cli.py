"""Command-line surface: encode, mirror, flipgraph, verify, inspect.

Exit codes: 0 success, 1 construction or verification failure, 2 usage
errors. Only verify takes --json: its reports go to stdout and a failure
diagnostic to stderr, each as one JSON object.
"""

import argparse
import json
import os
import sys

from . import codec, mirror, render, verify
from .encoder import encode_single
from .formatinfo import FormatWord, build_flip_graph, flip_graph_dot, word_bits
from .grid import overlap_partition
from .verify import DecodeError, MirrorMismatch, decode_grid, read_format_copies

MODE_NAMES = {"auto": "auto", "alnum": "alphanumeric", "byte": "byte", "numeric": "numeric"}


def _at_least(minimum):
    """argparse type: an integer no smaller than minimum."""

    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value

    return count


def _fail(args, stage, exc):
    message = str(exc).removeprefix(f"{stage}: ")  # staged errors name it already
    if getattr(args, "json", False):
        print(json.dumps({"error": stage, "message": message}), file=sys.stderr)
    else:
        print(f"error ({stage}): {message}", file=sys.stderr)
    return 1


def _write_output(path, data):
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _cmd_encode(args):
    try:
        grid = encode_single(args.text, MODE_NAMES[args.mode], args.mask)
    except codec.CodecError as exc:
        return _fail(args, "encode", exc)
    try:
        _write_output(args.output, render.to_pbm(grid, args.scale, args.quiet))
    except OSError as exc:
        return _fail(args, "output", exc)
    return 0


def _cmd_mirror(args):
    try:
        grid, report = mirror.construct_double_sided(
            args.text_a,
            args.text_b,
            method=args.method,
            trials=args.trials,
            seed=args.seed,
        )
    except (mirror.ConstructionError, codec.CodecError) as exc:
        stage = getattr(exc, "stage", "encode")
        return _fail(args, stage, exc)
    try:  # the report first: a failed run leaves no file and no image on stdout
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(report.to_json() + "\n")
        try:
            _write_output(args.output, render.to_pbm(grid, args.scale, args.quiet))
        except OSError:
            if args.report:
                os.remove(args.report)
            raise
    except OSError as exc:
        return _fail(args, "output", exc)
    return 0


def _cmd_flipgraph(args):
    try:
        _write_output(args.dot, flip_graph_dot(build_flip_graph(args.domain)).encode())
    except OSError as exc:
        return _fail(args, "output", exc)
    return 0


def _read_grid(args):
    with open(args.input, "rb") as fh:
        return render.parse_pbm(fh.read())


def _cmd_verify(args):
    try:
        grid = _read_grid(args)
    except (OSError, render.RenderError) as exc:
        return _fail(args, "input", exc)
    try:
        if args.expect_a is not None or args.expect_b is not None:
            if args.expect_a is None or args.expect_b is None:
                print("verify: --expect-a and --expect-b go together",
                      file=sys.stderr)
                return 2
            reports = verify.verify_double_sided(grid, args.expect_a, args.expect_b)
        else:
            reports = (decode_grid(grid, "straight"),)
    except MirrorMismatch as exc:
        return _fail(args, "decode mismatch", exc)
    except DecodeError as exc:
        return _fail(args, exc.stage, exc)
    for report in reports:
        if args.json:
            print(report.to_json())
        else:
            print(f"{report.orientation}: {report.text!r} "
                  f"(mask {report.mask_id}, level {report.ec_level}, "
                  f"format distance {report.format_distance}, "
                  f"{len(report.corrected_bytes)} corrected bytes)")
    return 0


def _cmd_inspect(args):
    try:
        grid = _read_grid(args)
    except (OSError, render.RenderError) as exc:
        return _fail(args, "input", exc)
    reports = []
    for label, g in (("straight", grid), ("mirrored", grid.transposed())):
        print(f"[{label}]")
        for copy, (word, decoded) in enumerate(read_format_copies(g), start=1):
            if decoded is None:
                print(f"  format copy {copy}: {word_bits(word)} undecodable")
            else:
                info, dist = decoded
                fmt = FormatWord.from_info(info)
                print(f"  format copy {copy}: {word_bits(word)} -> "
                      f"level {fmt.ec_level}, mask {fmt.mask_id}, distance {dist}")
        try:
            report = decode_grid(g, "straight")
        except DecodeError as exc:
            print(f"  decode failed at {exc}")  # str(exc) starts with the stage
            continue
        reports.append(report)
        words = verify.read_codewords(g, report.mask_id)
        print(f"  text: {report.text!r} ({report.mode})")
        print(f"  codewords: {' '.join(f'{b:02x}' for b in words)}")
        print(f"  corrected bytes: {sorted(report.corrected_bytes)}")
    if len(reports) < 2:
        print("zones: skipped (one side does not decode)")
        return 0
    # the bits a construction of the decoded pair pins; a side that reads
    # the terminator first declares none
    declared = [0 if rep.mode == "terminator" else
                codec.terminated_payload(rep.text, rep.mode).size for rep in reports]
    part = overlap_partition(*declared)
    sizes = {label: len(cells) for label, cells in sorted(part.zones.items())}
    print(f"zones: {sizes}")
    print(f"conflict bytes straight: {list(part.conflict_bytes_a())}")
    print(f"conflict bytes mirrored: {list(part.conflict_bytes_b())}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qrmirror",
        description="Double-sided QR Version 1-L toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="single-sided Version 1-L code")
    enc.add_argument("text")
    enc.add_argument("--mode", choices=MODE_NAMES, default="auto")
    enc.add_argument("--mask", type=int, default=0, choices=range(8))
    enc.add_argument("-o", "--output", required=True)
    enc.add_argument("--scale", type=_at_least(1), default=1)
    enc.add_argument("--quiet", type=_at_least(0), default=4)
    enc.set_defaults(func=_cmd_encode)

    mir = sub.add_parser("mirror", help="double-sided code for two messages")
    mir.add_argument("text_a")
    mir.add_argument("text_b")
    mir.add_argument("--method", choices=("analytic", "brute", "auto"),
                     default="auto")
    mir.add_argument("--trials", type=_at_least(1), default=200_000)
    mir.add_argument("--seed", type=_at_least(0), default=0)
    mir.add_argument("--report")
    mir.add_argument("-o", "--output", required=True)
    mir.add_argument("--scale", type=_at_least(1), default=1)
    mir.add_argument("--quiet", type=_at_least(0), default=4)
    mir.set_defaults(func=_cmd_mirror)

    fg = sub.add_parser("flipgraph", help="export the control-code flip graph")
    fg.add_argument("--domain", choices=("grid", "raw"), default="grid")
    fg.add_argument("--dot", required=True)
    fg.set_defaults(func=_cmd_flipgraph)

    ver = sub.add_parser("verify", help="decode a PBM, optionally both sides")
    ver.add_argument("input")
    ver.add_argument("--expect-a")
    ver.add_argument("--expect-b")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    ins = sub.add_parser("inspect", help="dump format words, codewords, zones")
    ins.add_argument("input")
    ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "scale"):  # encode and mirror: no construction for an image too large
        try:
            render.image_side(args.scale, args.quiet)
        except ValueError as exc:
            parser.error(f"--scale/--quiet: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
