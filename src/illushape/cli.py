"""Command-line entry point: PGM in, solver run, images + CSV + JSON out."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .canyon import ConfigurationMask
from .elliptic import CgConvergenceError, CgParams
from .energy import PhaseField
from .grid import GridField, GridGeometry
from .shape import connected_components, extract_shape
from .solver import (
    RangePreservationError,
    SolverConfig,
    default_model,
    null_hypothesis,
    presmooth,
    run,
)

__all__ = [
    "PgmFormatError",
    "EmptyConfigurationError",
    "BoundaryContactError",
    "read_pgm",
    "write_pgm",
    "load_mask",
    "save_field_image",
    "run_command",
    "main",
]

# One graymap token with the whitespace and "#" comments (to the end of the
# line) before it; the token is empty only where the data end.
_TOKEN = re.compile(rb"\s*(?:#[^\r\n]*\s*)*(\S*)")
_SPACE = re.compile(rb"\s")

# Byte classes of a P2 raster: the whitespace of _TOKEN (the \s of a bytes
# pattern), its line ends, which close a comment, and the digits.
_WHITE, _LINE_END, _DIGIT = 1, 2, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\r\x0b\x0c")] |= _WHITE
_BYTE_CLASS[list(b"\r\n")] |= _LINE_END
_BYTE_CLASS[list(b"0123456789")] |= _DIGIT
_P2_BLOCK = 1 << 16  # raster bytes per numpy pass, so temporaries stay O(block)


class PgmFormatError(ValueError):
    """The file is not an 8-bit portable graymap this tool understands."""


class EmptyConfigurationError(ValueError):
    """No inducer pixels survived binarization."""


class BoundaryContactError(ValueError):
    """The inducer configuration touches the image border."""


def read_pgm(path) -> tuple[int, int, np.ndarray]:
    """Read an 8-bit PGM (plain P2 or raw P5); returns (width, height, pixels)."""
    width, height, _, pixels = _read_graymap(path)
    return width, height, pixels


def _read_graymap(path) -> tuple[int, int, int, np.ndarray]:
    """``read_pgm`` plus the header's maxval."""
    data = Path(path).read_bytes()
    tokens = _TOKEN.finditer(data)
    magic = next(tokens)[1]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported graymap magic {magic!r} (want P2 or P5)")
    header = []
    for what in ("width", "height", "maxval"):
        last = next(tokens)
        try:  # int() alone would also take a sign or "_" between digits
            if not last[1].isdigit():
                raise ValueError
            # without leading zeros, which int() would count against its digit limit
            header.append(int(last[1].lstrip(b"0") or b"0"))
        except ValueError:  # or more digits than int() reads
            raise PgmFormatError(f"bad or missing graymap {what}: {last[1]!r}") from None
    width, height, maxval = header
    if min(header) <= 0:
        raise PgmFormatError(f"graymap width, height and maxval must be positive, got {header}")
    if maxval > 255:
        raise PgmFormatError(f"only 8-bit graymaps supported (maxval {maxval})")
    n = width * height
    if magic == b"P5":
        pos = last.end() + 1  # single whitespace byte after maxval
        raster = data[pos : pos + n]
        if len(raster) < n:
            raise PgmFormatError("truncated P5 raster")
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        if pixels.max() > maxval:
            raise PgmFormatError(f"P5 sample {pixels.max()} outside [0, {maxval}]")
    else:
        if n > len(data):  # each sample takes at least one byte
            raise PgmFormatError("truncated P2 raster")
        pixels = _p2_raster(data, last.end(), n, maxval).reshape(height, width)
    return width, height, maxval, pixels


def _p2_raster(data: bytes, pos: int, n: int, maxval: int) -> np.ndarray:
    """The first ``n`` samples of the P2 raster that starts at ``data[pos]``, flat.

    Tokens follow ``_TOKEN``: runs of non-whitespace, where a ``#`` that
    starts a token instead opens a comment that runs to the next CR or LF.
    The raster is read in blocks of about ``_P2_BLOCK`` bytes, each ending
    just after a whitespace byte, so no token crosses a block boundary; a
    comment still open at a block's end carries into the next.  A sample is
    built from place values capped at 10^3, so an overlong sample still
    exceeds every maxval while leading zeros cost nothing.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    pixels = np.empty(n, dtype=np.uint8)
    count = peak = 0
    in_comment = False
    while count < n and pos < len(data):
        space = _SPACE.search(data, pos + _P2_BLOCK - 1)
        stop = space.end() if space else len(data)
        block = raw[pos:stop]
        kind = _BYTE_CLASS[block]
        white = (kind & _WHITE).astype(bool)
        # a "#" opens a comment where a token would start: after whitespace
        # (the raster starts at a whitespace byte, every later block after one)
        opens = block == ord("#")
        opens[1:] &= white[:-1]
        opens[0] |= in_comment
        if opens.any():
            at = np.arange(len(block))
            last_open = np.maximum.accumulate(np.where(opens, at, -1))
            last_end = np.maximum.accumulate(np.where(kind & _LINE_END, at, -1))
            comment = last_open > last_end
            in_comment = bool(comment[-1])
            white |= comment
        edges = np.flatnonzero(np.diff(~white, prepend=False, append=False))
        starts, ends = edges[0::2][: n - count], edges[1::2][: n - count]
        if len(starts):
            used = slice(0, ends[-1])
            bad = ~white[used] & ~(kind[used] & _DIGIT).astype(bool)
            if bad.any():
                t = np.searchsorted(starts, np.argmax(bad), side="right") - 1
                raise PgmFormatError(f"bad P2 sample: {bytes(block[starts[t] : ends[t]])!r}")
            digits = np.where(white[used], 0, block[used].astype(np.int64) - ord("0"))
            # every digit above the hundreds place counts 1000, the last three their place value
            total = np.concatenate(([0], np.cumsum(digits)))
            values = 1000 * (total[np.maximum(ends - 3, starts)] - total[starts])
            for place, scale in ((1, 1), (2, 10), (3, 100)):
                i = ends - place
                values += np.where(i >= starts, scale * digits[np.maximum(i, starts)], 0)
            peak = max(peak, int(values.max()))
            pixels[count : count + len(values)] = np.minimum(values, 255)
            count += len(values)
        pos = stop
    if count < n:
        raise PgmFormatError("truncated P2 raster")
    if peak > maxval:
        raise PgmFormatError(f"P2 sample outside [0, {maxval}]")
    return pixels


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a uint8 array as a raw P5 graymap."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def load_mask(path, invert: bool = False, bin_threshold: int = 128) -> ConfigurationMask:
    """Binarize a graymap into an inducer mask.

    Dark pixels (luminance below ``bin_threshold`` on the 0..255 scale, i.e.
    ``sample * 255 < bin_threshold * maxval``) are inducers; ``invert`` flips
    the rule.  Masks with no inducers or with inducers on the image border
    are rejected.
    """
    width, height, maxval, pixels = _read_graymap(path)
    # exact integer comparison; for maxval 255 this is sample < bin_threshold
    inside = pixels.astype(np.int64) * 255 < bin_threshold * maxval
    if invert:
        inside = ~inside
    mask = ConfigurationMask(GridGeometry(width, height), inside)
    if not mask.inside.any():
        raise EmptyConfigurationError("empty configuration")
    if mask.touches_boundary():
        raise BoundaryContactError("configuration touches boundary")
    return mask


def save_field_image(f: GridField, path) -> None:
    """Quantize a field to 8 bits (round half up after clamping to [0, 1])."""
    q = np.floor(np.clip(f.values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    write_pgm(path, q)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with the input-error code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="illushape", description="Compute illusory shapes from a binary inducer image.")
    parser.add_argument("--input", required=True, help="inducer image (8-bit PGM, P2 or P5)")
    parser.add_argument("--out-dir", required=True, help="output directory (created if missing)")
    parser.add_argument("--alpha", type=float, default=0.1, help="canyon floor")
    parser.add_argument("--beta", type=float, default=1.0, help="canyon drop")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0, help="confinement weight")
    parser.add_argument("--epsilon-factor", type=float, default=3.0, help="transition bandwidth in grid spacings")
    parser.add_argument("--sigma-factor", type=float, default=2.0, help="mollification scale in grid spacings")
    parser.add_argument("--gain", type=float, default=3.0, help="edge-strength gain")
    parser.add_argument("--g", choices=("exp", "rational"), default="exp", help="edge decay function")
    parser.add_argument("--delta", type=float, default=1e-6, help="outer RMS tolerance")
    parser.add_argument("--max-outer", type=int, default=5000, help="outer iteration budget")
    parser.add_argument("--cg-tol", type=float, default=1e-10, help="inner relative residual tolerance")
    parser.add_argument("--threshold", type=float, default=0.5, help="shape threshold")
    parser.add_argument("--presmooth", type=int, default=0, help="heat steps applied to the initial guess")
    parser.add_argument("--snapshot-every", type=int, default=0, help="write snap_NNNNNN.pgm every N iterations")
    parser.add_argument("--progress", type=int, default=0, help="write a JSON progress line to stderr every N iterations")
    parser.add_argument("--invert", action="store_true", help="treat light pixels as inducers")
    parser.add_argument("--bin-threshold", type=int, default=128, help="binarization luminance threshold on the 0-255 scale")
    return parser


_G_KINDS = {"exp": "exp_square", "rational": "rational"}


def _write_energy_csv(path, report) -> None:
    def fmt(x: float) -> str:
        return f"{x:.17g}"

    lines = [
        "iter,energy,rho,rms_update,cg_iters,cg_residual,"
        "drop_bound,pre_clamp_min,pre_clamp_max,start_rank,full_applications,reduced_applications,"
        "retried"
    ]
    for s in report.steps:
        lines.append(
            f"{s.index},{fmt(s.energy)},{fmt(s.rho)},{fmt(s.rms_update)},"
            f"{s.cg_iters},{fmt(s.cg_residual)},{fmt(s.drop_bound)},"
            f"{fmt(s.pre_clamp_min)},{fmt(s.pre_clamp_max)},{s.start_rank},"
            f"{s.full_applications},{s.reduced_applications},{s.retried}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def run_command(argv=None) -> int:
    """Run the solver on an image; exit 0 on convergence, 2 on budget, 1 on bad input,
    3 when the run's audit finds an energy rise or a step short of its drop bound."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        mask = load_mask(args.input, invert=args.invert, bin_threshold=args.bin_threshold)
        model = default_model(
            mask,
            alpha=args.alpha,
            beta=args.beta,
            lam=args.lam,
            epsilon_factor=args.epsilon_factor,
            sigma_factor=args.sigma_factor,
            gain=args.gain,
            g_kind=_G_KINDS[args.g],
        )
        cfg = SolverConfig(
            model=model,
            cg=CgParams(rel_tol=args.cg_tol),
            delta=args.delta,
            max_outer=args.max_outer,
        )
        if not (0.0 < args.threshold < 1.0):
            raise ValueError("threshold must lie strictly between 0 and 1")
        for flag in ("presmooth", "snapshot_every", "progress"):
            if getattr(args, flag) < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative")
    except (OSError, ValueError) as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)
    cg_iters = 0

    def step_sink(record, field: PhaseField) -> None:
        """Write the progress line and the snapshot that fall on this step."""
        nonlocal cg_iters
        cg_iters += record.cg_iters
        if args.progress and record.index % args.progress == 0:
            line = {
                "step": record.index,
                "energy": record.energy,
                "rms_update": record.rms_update,
                "cg_iters": cg_iters,
                "elapsed_s": time.perf_counter() - t0,
            }
            print(json.dumps(line), file=sys.stderr, flush=True)
        if args.snapshot_every and record.index % args.snapshot_every == 0:
            save_field_image(field, out_dir / f"snap_{record.index:06d}.pgm")

    t0 = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        final, report = run(
            cfg,
            initial=presmooth(null_hypothesis(mask), args.presmooth),
            step_sink=step_sink,
        )
        elapsed = time.perf_counter() - t0
        shape = extract_shape(final, args.threshold)
        components = connected_components(shape)
        save_field_image(final, out_dir / "final_phase.pgm")
        write_pgm(out_dir / "shape.pgm", shape.inside.astype(np.uint8) * 255)
        _write_energy_csv(out_dir / "energy.csv", report)
        geometry = mask.geometry
        last = report.steps[-1]
        audit = report.audit()
        summary = {
            "input": str(args.input),
            "parameters": {
                "alpha": args.alpha,
                "beta": args.beta,
                "lambda": args.lam,
                "epsilon": model.epsilon,
                "epsilon_factor": args.epsilon_factor,
                "sigma": args.sigma_factor * geometry.h,
                "sigma_factor": args.sigma_factor,
                "gain": args.gain,
                "g_kind": _G_KINDS[args.g],
                "delta": args.delta,
                "max_outer": args.max_outer,
                "cg_tol": args.cg_tol,
                "threshold": args.threshold,
                "presmooth": args.presmooth,
                "snapshot_every": args.snapshot_every,
                "invert": args.invert,
                "bin_threshold": args.bin_threshold,
                "width": geometry.width,
                "height": geometry.height,
                "h": geometry.h,
            },
            "status": report.status,
            "iterations": len(report.steps),
            "final_energy": last.energy,
            "final_rms_update": last.rms_update,
            "el_residual": report.el_residual,
            # square roots of the per-step energy drops; a bounded tail suggests
            # fast (quadratic power law) convergence; a diagnostic, never asserted
            "sqrt_rho_partial_sum": float(
                sum(math.sqrt(max(s.rho, 0.0)) for s in report.steps if not math.isnan(s.rho))
            ),
            # median ratio of successive energy drops over the last 20 steps;
            # below 1 when the run was closing in; a diagnostic, never asserted
            "rho_ratio": report.rho_ratio(),
            "component_count": components.count,
            "component_areas": components.areas,
            "empty_shape": components.count == 0,
            "cg_iterations": sum(s.cg_iters for s in report.steps),
            "full_operator_applications": sum(s.full_applications for s in report.steps),
            "reduced_operator_applications": sum(s.reduced_applications for s in report.steps),
            "audit": audit,
            "elapsed_seconds": elapsed,
        }
        with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (CgConvergenceError, RangePreservationError) as exc:
        print(f"illushape: solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1

    print(
        f"{report.status}: {len(report.steps)} iterations, "
        f"energy {last.energy:.6g}, {components.count} component(s), "
        f"{elapsed:.2f}s"
    )
    if components.count == 0:
        print(
            "illushape: warning: the shape is empty; the transition band may be too wide "
            "for the figure, try a smaller --epsilon-factor",
            file=sys.stderr,
        )
    if audit["energy_increases"] or audit["drop_bound_misses"]:
        print(
            f"illushape: audit failed: {audit['energy_increases']} energy increase(s), "
            f"{audit['drop_bound_misses']} drop-bound miss(es)",
            file=sys.stderr,
        )
        return 3
    return 0 if report.status == "converged" else 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
