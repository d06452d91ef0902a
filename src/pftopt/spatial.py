"""Parsers and writers for the spatial artifacts the workflows exchange:
GeoDA-style `.gal` contiguity weights, the two linear CSVs (from,to,value
matrices and tail,head,weight[,capacity] networks, each read from its first
columns in that order), great-circle distances, and two-column assignment
CSVs. Every input file is read and checked here, once, into the checked form
a builder takes."""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import AdjacencySet, DistanceMatrix, InputError, Network

__all__ = [
    "GalParseError",
    "DistanceCsvError",
    "SpatialWeights",
    "GeoPoint",
    "parse_gal",
    "render_gal",
    "weights_to_pairs",
    "parse_distance_matrix",
    "parse_network",
    "geodesic_miles",
    "write_assignment_csv",
]

EARTH_RADIUS_MILES = 3958.7613


class GalParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class DistanceCsvError(ValueError):
    """A linear CSV (a from,to,distance matrix or a tail,head,weight[,capacity]
    network) that cannot be read; the message names the line where one applies."""


@dataclass(frozen=True)
class SpatialWeights:
    """A parsed `.gal` file; `parse_gal` checks that it holds exactly the
    header's area count of records."""

    header: tuple  # (flag, area count, dataset name, key name) tokens
    neighbors: dict  # area id -> ordered neighbor id list


@dataclass(frozen=True)
class GeoPoint:
    id: object
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90 <= self.lat <= 90:
            raise InputError(f"latitude {self.lat} out of range")
        if not -180 <= self.lon <= 180:
            raise InputError(f"longitude {self.lon} out of range")


def parse_gal(text: str) -> SpatialWeights:
    """Parse a `.gal` file: a header line whose second token is the area
    count, then alternating `<area> <neighbor-count>` and neighbor-id lines,
    exactly one record per counted area."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise GalParseError("empty file", 1)
    header = tuple(lines[0].split())
    if len(header) < 2:
        raise GalParseError("header needs at least a flag and an area count", 1)
    try:
        count = int(header[1])
    except ValueError:
        raise GalParseError(f"area count {header[1]!r} is not numeric", 1)
    if count < 0:
        raise GalParseError(f"area count {count} is negative", 1)
    neighbors: dict = {}
    line_no = 1
    idx = 1
    for _ in range(count):
        # Skip blank lines between records.
        while idx < len(lines) and not lines[idx].split():
            idx += 1
        if idx >= len(lines):
            raise GalParseError("truncated file: missing area entry", line_no + 1)
        line_no = idx + 1
        tokens = lines[idx].split()
        if len(tokens) != 2:
            raise GalParseError(f"expected '<area> <count>', got {lines[idx]!r}", line_no)
        area = tokens[0]
        try:
            n_nb = int(tokens[1])
        except ValueError:
            raise GalParseError(f"neighbor count {tokens[1]!r} is not numeric", line_no)
        if n_nb < 0:
            raise GalParseError(f"neighbor count {n_nb} is negative", line_no)
        if area in neighbors:
            raise GalParseError(f"duplicate area {area!r}", line_no)
        idx += 1
        if n_nb == 0:
            nb_tokens = []
        else:
            if idx >= len(lines):
                raise GalParseError(f"area {area!r}: missing neighbor line", line_no + 1)
            nb_tokens = lines[idx].split()
            if len(nb_tokens) != n_nb:
                raise GalParseError(
                    f"area {area!r} declares {n_nb} neighbors, line has {len(nb_tokens)}",
                    idx + 1,
                )
            idx += 1
        neighbors[area] = nb_tokens
    rest = [k for k in range(idx, len(lines)) if lines[k].split()]
    if rest:
        raise GalParseError(f"record beyond the {count} declared areas", rest[0] + 1)
    unknown = {nb for nbs in neighbors.values() for nb in nbs} - set(neighbors)
    if unknown:
        warnings.warn(f"neighbor ids not listed as areas: {sorted(unknown)}")
    return SpatialWeights(header=header, neighbors=neighbors)


def render_gal(weights: SpatialWeights) -> str:
    """Canonical rendering; parse_gal(render_gal(w)) == w."""
    out = [" ".join(str(tok) for tok in weights.header)]
    for area, nbs in weights.neighbors.items():
        out.append(f"{area} {len(nbs)}")
        if nbs:
            out.append(" ".join(nbs))
    return "\n".join(out) + "\n"


def weights_to_pairs(weights: SpatialWeights) -> AdjacencySet:
    """Deduplicated unordered boundary pairs; a one-sided mention still yields
    the pair but triggers a warning."""
    areas = tuple(weights.neighbors)
    pairs = set()
    asymmetric = []
    for area, nbs in weights.neighbors.items():
        for nb in nbs:
            if nb == area:
                continue
            pairs.add(frozenset((area, nb)))
            if area not in weights.neighbors.get(nb, ()):
                asymmetric.append((area, nb))
    if asymmetric:
        warnings.warn(f"asymmetric neighbor mentions: {asymmetric}")
    all_ids = set(areas)
    extra = tuple(
        sorted({b for pair in pairs for b in pair if b not in all_ids})
    )
    return AdjacencySet(area_ids=areas + extra, pairs=frozenset(pairs))


def _csv_rows(text: str):
    """(line number, cells) of each data row of a linear CSV: the header row
    and blank rows are skipped."""
    rows = csv.reader(io.StringIO(text))
    if next(rows, None) is None:
        raise DistanceCsvError("empty file")
    for line_no, row in enumerate(rows, start=2):
        if any(cell.strip() for cell in row):
            yield line_no, row


def _measure(cell: str, what: str, line_no: int, inf_ok: bool = False) -> float:
    """A non-negative number cell, +inf only where `inf_ok`."""
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        raise DistanceCsvError(f"line {line_no}: {what} {cell!r} is not numeric") from None
    if not (value >= 0 and (inf_ok or value < math.inf)):
        need = "non-negative" if inf_ok else "finite and non-negative"
        raise DistanceCsvError(f"line {line_no}: {what} {cell!r} must be {need}")
    return value


def _id(cell: str, what: str, line_no: int) -> str:
    """An id cell's stripped text, which must not be blank."""
    cell = cell.strip()
    if not cell:
        raise DistanceCsvError(f"line {line_no}: {what} id is blank")
    return cell


def parse_distance_matrix(text: str) -> DistanceMatrix:
    """Densify a linear CSV with a header row, whose first three columns are
    from, to and distance, into a DistanceMatrix; ids are the stripped cell
    text, never blank, and keep first-appearance order, and every pair must
    appear exactly once."""
    row_of: dict = {}  # from id -> row, in first-appearance order
    col_of: dict = {}  # to id -> column
    entries: dict = {}  # (row, column) -> distance
    for line_no, row in _csv_rows(text):
        if len(row) < 3:
            raise DistanceCsvError(f"line {line_no}: missing column")
        f, t = _id(row[0], "from", line_no), _id(row[1], "to", line_no)
        dist = _measure(row[2], "distance", line_no)
        key = (row_of.setdefault(f, len(row_of)), col_of.setdefault(t, len(col_of)))
        if key in entries:
            raise DistanceCsvError(f"line {line_no}: duplicate (from, to) pair ({f}, {t})")
        entries[key] = dist
    if not entries:
        raise DistanceCsvError("no data rows")
    from_ids, to_ids = tuple(row_of), tuple(col_of)
    d = np.full((len(from_ids), len(to_ids)), math.nan)  # NaN marks a missing pair
    d[tuple(zip(*entries))] = list(entries.values())
    missing = np.argwhere(np.isnan(d))  # row-major order
    if missing.size:
        i, j = missing[0]
        raise DistanceCsvError(f"missing (from, to) pair ({from_ids[i]}, {to_ids[j]})")
    return DistanceMatrix(from_ids=from_ids, to_ids=to_ids, d=d)


def parse_network(text: str) -> Network:
    """Network from a CSV with header tail,head,weight[,capacity]; a blank or
    inf capacity means uncapacitated. Node ids are the stripped cell text,
    never blank, so `01` and `1` are two nodes, and nodes keep
    first-appearance order."""
    nodes: dict = {}  # insertion-ordered set
    arcs = []
    for line_no, row in _csv_rows(text):
        if len(row) < 3:
            raise DistanceCsvError(f"line {line_no}: rows need tail,head,weight[,capacity]")
        tail, head = _id(row[0], "tail", line_no), _id(row[1], "head", line_no)
        weight = _measure(row[2], "weight", line_no)
        cap = row[3] if len(row) > 3 else ""
        capacity = _measure(cap, "capacity", line_no, inf_ok=True) if cap.strip() else math.inf
        nodes.update(dict.fromkeys((tail, head)))
        arcs.append((tail, head, weight, capacity))
    return Network(node_ids=tuple(nodes), arcs=tuple(arcs))


def geodesic_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance on a mean-radius sphere, in miles."""
    la1, lo1, la2, lo2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((la2 - la1) / 2) ** 2
        + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(s)))


def write_assignment_csv(assignment: dict, id_header: str, label_header: str) -> str:
    """Two-column CSV, one row per id in input order, no index column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([id_header, label_header])
    for key, label in assignment.items():
        writer.writerow([key, label])
    return out.getvalue()
