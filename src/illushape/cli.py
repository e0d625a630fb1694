"""Command-line entry point: PGM in, solver run, images + CSV + JSON out."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .canyon import ConfigurationMask, NoBoundaryError
from .elliptic import CgConvergenceError, CgParams
from .energy import PhaseField
from .grid import GridField, GridGeometry
from .shape import connected_components, extract_shape
from .solver import RangePreservationError, SolverConfig, default_model, run

__all__ = [
    "PgmFormatError",
    "EmptyConfigurationError",
    "BoundaryContactError",
    "RunSummary",
    "read_pgm",
    "write_pgm",
    "load_mask",
    "save_field_image",
    "run_command",
    "main",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PgmFormatError(ValueError):
    """The file is not an 8-bit portable graymap this tool understands."""


class EmptyConfigurationError(ValueError):
    """No inducer pixels survived binarization."""


class BoundaryContactError(ValueError):
    """The inducer configuration touches the image border."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("truncated graymap header")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        value = int(token)
    except ValueError:
        raise PgmFormatError(f"bad {what} in graymap header: {token!r}") from None
    if value <= 0:
        raise PgmFormatError(f"{what} must be positive, got {value}")
    return value, pos


def read_pgm(path) -> tuple[int, int, np.ndarray]:
    """Read an 8-bit PGM (plain P2 or raw P5); returns (width, height, pixels)."""
    width, height, _, pixels = _read_graymap(path)
    return width, height, pixels


def _read_graymap(path) -> tuple[int, int, int, np.ndarray]:
    """``read_pgm`` plus the header's maxval."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported graymap magic {magic!r} (want P2 or P5)")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval > 255:
        raise PgmFormatError(f"only 8-bit graymaps supported (maxval {maxval})")
    n = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + n]
        if len(raster) < n:
            raise PgmFormatError("truncated P5 raster")
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        if pixels.max() > maxval:
            raise PgmFormatError(f"P5 sample {pixels.max()} outside [0, {maxval}]")
    else:
        values = []
        for _ in range(n):
            token, pos = _next_token(data, pos)
            try:
                v = int(token)
            except ValueError:
                raise PgmFormatError(f"bad P2 sample {token!r}") from None
            if not (0 <= v <= maxval):
                raise PgmFormatError(f"P2 sample {v} outside [0, {maxval}]")
            values.append(v)
        pixels = np.array(values, dtype=np.uint8).reshape(height, width)
    return width, height, maxval, pixels


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


@dataclass(frozen=True)
class RunSummary:
    """Everything needed to reproduce and audit a run, minus wall time.

    ``sqrt_rho_partial_sum`` accumulates the square roots of the per-step
    energy improvements; a bounded tail indicates fast (quadratic-power-law
    style) convergence.  It is reported as a diagnostic, never asserted.
    """

    input: str
    parameters: dict
    status: str
    iterations: int
    final_energy: float
    final_rms_update: float
    el_residual: float
    sqrt_rho_partial_sum: float
    component_count: int
    component_areas: tuple[int, ...]
    elapsed_seconds: float


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
    parser.add_argument("--invert", action="store_true", help="treat light pixels as inducers")
    parser.add_argument("--bin-threshold", type=int, default=128, help="binarization luminance threshold on the 0-255 scale")
    return parser


_G_KINDS = {"exp": "exp_square", "rational": "rational"}


def _write_energy_csv(path, report) -> None:
    def fmt(x: float) -> str:
        return f"{x:.17g}"

    lines = ["iter,energy,rho,rms_update,cg_iters,cg_residual"]
    for s in report.steps:
        lines.append(
            f"{s.index},{fmt(s.energy)},{fmt(s.rho)},{fmt(s.rms_update)},"
            f"{s.cg_iters},{fmt(s.cg_residual)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def run_command(argv=None) -> int:
    """Run the solver on an image; exit 0 on convergence, 2 on budget, 1 on bad input."""
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
            presmooth_steps=args.presmooth,
            snapshot_every=args.snapshot_every,
        )
        if not (0.0 < args.threshold < 1.0):
            raise ValueError("threshold must lie strictly between 0 and 1")
    except (OSError, ValueError, NoBoundaryError) as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir)

    def sink(iteration: int, field: PhaseField) -> None:
        save_field_image(field, out_dir / f"snap_{iteration:06d}.pgm")

    t0 = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        final, report = run(mask, cfg, snapshot_sink=sink if args.snapshot_every else None)
    except (CgConvergenceError, RangePreservationError) as exc:
        print(f"illushape: solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

    shape = extract_shape(final, args.threshold)
    components = connected_components(shape)

    try:
        save_field_image(final, out_dir / "final_phase.pgm")
        write_pgm(out_dir / "shape.pgm", shape.inside.astype(np.uint8) * 255)
        _write_energy_csv(out_dir / "energy.csv", report)
    except OSError as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1

    geometry = mask.geometry
    last = report.steps[-1]
    sqrt_rho = float(
        sum(math.sqrt(max(s.rho, 0.0)) for s in report.steps if not math.isnan(s.rho))
    )
    summary = RunSummary(
        input=str(args.input),
        parameters={
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
        status=report.status,
        iterations=len(report.steps),
        final_energy=last.energy,
        final_rms_update=last.rms_update,
        el_residual=report.el_residual,
        sqrt_rho_partial_sum=sqrt_rho,
        component_count=components.count,
        component_areas=components.areas,
        elapsed_seconds=elapsed,
    )
    try:
        with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
            json.dump(asdict(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"illushape: {exc}", file=sys.stderr)
        return 1

    print(
        f"{report.status}: {len(report.steps)} iterations, "
        f"energy {last.energy:.6g}, {components.count} component(s), "
        f"{elapsed:.2f}s"
    )
    return 0 if report.status == "converged" else 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
