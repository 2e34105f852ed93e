"""Seeded synthetic placed circuits matching published benchmark stats.

The original industrial netlists routed in §5 are not available; per the
substitution policy in DESIGN.md §4 we regenerate each circuit from its
published statistics: array size, net count and pin-count histogram
(Tables 2–3).  Channel-width behaviour additionally depends on how
*local* the placement is (a placed circuit's nets cluster spatially), so
nets are placed with a locality model: each net picks a center block and
spreads its pins around it with a geometric tail, calibrated so that the
mean net bounding box resembles placed-circuit behaviour (small nets
local, large nets spanning a region).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Set, Tuple

from ..errors import NetError
from .benchmarks import CircuitSpec
from .netlist import PinRef, PlacedCircuit, PlacedNet


def _sample_pin_count(spec_bucket: str, rng: random.Random) -> int:
    """Sample a pin count within one of the paper's histogram buckets."""
    if spec_bucket == "2-3":
        return rng.choice((2, 2, 3))  # 2-pin nets dominate real designs
    if spec_bucket == "4-10":
        return rng.randint(4, 10)
    # ">10": real circuits' large nets are mostly 11-20 pins with a
    # short tail; clamp to keep routing tractable.
    return min(11 + int(rng.expovariate(0.25)), 25)


def _bucket_schedule(spec: CircuitSpec, rng: random.Random) -> List[str]:
    """The per-net bucket labels, shuffled deterministically."""
    labels = (
        ["2-3"] * spec.nets_2_3
        + ["4-10"] * spec.nets_4_10
        + [">10"] * spec.nets_over_10
    )
    rng.shuffle(labels)
    return labels


class _PinAllocator:
    """Hands out free (block, pin) slots with spatial locality."""

    def __init__(self, cols: int, rows: int, pins_per_block: int,
                 rng: random.Random):
        self.cols = cols
        self.rows = rows
        self.pins_per_block = pins_per_block
        self.rng = rng
        self._free: Dict[Tuple[int, int], List[int]] = {
            (x, y): list(range(pins_per_block))
            for x in range(cols)
            for y in range(rows)
        }

    def _ring(self, cx: int, cy: int, radius: int) -> List[Tuple[int, int]]:
        """Blocks at Chebyshev distance ``radius`` from the center."""
        if radius == 0:
            return [(cx, cy)] if (cx, cy) in self._free else []
        out = []
        for dx in range(-radius, radius + 1):
            for dy in (-radius, radius):
                b = (cx + dx, cy + dy)
                if b in self._free:
                    out.append(b)
        for dy in range(-radius + 1, radius):
            for dx in (-radius, radius):
                b = (cx + dx, cy + dy)
                if b in self._free:
                    out.append(b)
        return out

    def take_near(self, cx: int, cy: int, spread: int) -> PinRef:
        """A free pin slot near ``(cx, cy)``.

        Tries a geometric radius around the center (locality), then
        expands ring by ring until a free slot is found.
        """
        start = min(
            int(self.rng.expovariate(1.0 / max(1, spread))),
            max(self.cols, self.rows),
        )
        max_radius = self.cols + self.rows
        for radius in list(range(start, max_radius)) + list(range(start)):
            candidates = [
                b for b in self._ring(cx, cy, radius) if self._free[b]
            ]
            if candidates:
                block = self.rng.choice(candidates)
                pins = self._free[block]
                pin = pins.pop(self.rng.randrange(len(pins)))
                return (block[0], block[1], pin)
        raise NetError("placement ran out of pin slots")


def synthesize_circuit(
    spec: CircuitSpec,
    seed: int = 0,
    pins_per_block: int = 8,
    locality: float = 0.22,
) -> PlacedCircuit:
    """Generate a placed circuit matching ``spec``'s published statistics.

    Parameters
    ----------
    spec:
        Published circuit statistics (array size + pin histogram).
    seed:
        RNG seed; the same (spec, seed) always yields the same circuit.
    pins_per_block:
        Pin slots per logic block (must leave headroom over the spec's
        total pin demand).
    locality:
        Net spread as a fraction of the array diagonal — the knob
        calibrating how "placed" the circuit looks.  Small nets use
        roughly this spread; nets with many pins spread proportionally
        wider, as placed high-fanout nets do.

    Returns
    -------
    A validated :class:`PlacedCircuit`.
    """
    # zlib.crc32 is stable across processes (unlike str.__hash__, which
    # is randomized per interpreter run)
    rng = random.Random((seed << 16) ^ (zlib.crc32(spec.name.encode()) & 0xFFFF))
    alloc = _PinAllocator(spec.cols, spec.rows, pins_per_block, rng)
    diag = spec.cols + spec.rows
    nets: List[PlacedNet] = []
    for i, bucket in enumerate(_bucket_schedule(spec, rng)):
        count = _sample_pin_count(bucket, rng)
        cx = rng.randrange(spec.cols)
        cy = rng.randrange(spec.rows)
        spread = max(1, int(locality * diag * (1.0 + count / 10.0)))
        pins: List[PinRef] = []
        for _ in range(count):
            pins.append(alloc.take_near(cx, cy, spread))
        nets.append(
            PlacedNet(
                name=f"{spec.name}_n{i}",
                source=pins[0],
                sinks=tuple(pins[1:]),
            )
        )
    circuit = PlacedCircuit(
        name=spec.name, rows=spec.rows, cols=spec.cols, nets=nets
    )
    return circuit.validate(pins_per_block)


def scaled_spec(
    spec: CircuitSpec, fraction: float, min_nets: int = 8
) -> CircuitSpec:
    """A shrunken copy of ``spec`` for fast default benchmark runs.

    Scales the array and every histogram bucket by ``fraction`` (at
    least ``min_nets`` total nets survive) so the default bench suite
    exercises the identical pipeline at laptop-friendly sizes; set
    ``REPRO_FULL=1`` to run the published sizes.
    """
    if not 0 < fraction <= 1:
        raise NetError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return spec

    def scale(n: int) -> int:
        return max(1, round(n * fraction))

    b23 = scale(spec.nets_2_3)
    b410 = scale(spec.nets_4_10)
    bover = max(0, round(spec.nets_over_10 * fraction))
    total = b23 + b410 + bover
    if total < min_nets:
        b23 += min_nets - total
    # shrink the array area in proportion to the net count (linear
    # dimensions by sqrt) so pin density per block matches the original
    # circuit — density is what channel-width behaviour depends on
    import math

    dim_scale = math.sqrt(fraction)
    return CircuitSpec(
        name=f"{spec.name}@{fraction:g}",
        family=spec.family,
        cols=max(4, round(spec.cols * dim_scale)),
        rows=max(4, round(spec.rows * dim_scale)),
        nets_2_3=b23,
        nets_4_10=b410,
        nets_over_10=bover,
        published=spec.published,
    )
