"""Lattice data model, validation, random construction, and (de)serialization.

A lattice is an L-vertex DAG with edges only from lower to higher vertex
indices. Vertices emit tokens (log_emission), edges carry transition
probability (log_transition, strictly upper triangular in probability mass).
Vertex indices are 0-based internally and in serialized files; documentation
and CLI output use 1-based indices.
"""

import json
import numbers
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .logspace import NEG_INF, logsumexp

NORM_TOLERANCE = 1e-4

BINARY_MAGIC = b"DALT"
BINARY_VERSION = 1


class LatticeFormatError(ValueError):
    """Malformed lattice file (bad magic, bad JSON, missing field)."""


class DimensionError(ValueError):
    """Matrix shapes disagree with the declared dimensions."""


@dataclass(frozen=True)
class DagLattice:
    """Immutable (E, P, V) triple in log space plus dimensions.

    The lattice owns its arrays: construction copies every array it is
    given into a new read-only float64 array, so no view the caller kept
    can change it afterwards. ``dp`` relies on that for its one-entry memo
    of the forward and backward tables for the last target and for its
    pass matrix (private ``_dp_memo`` and ``_pass_memo`` attributes outside
    the dataclass fields, so they take no part in ``==``, ``repr`` or
    serialization): a memoised table always belongs to the arrays the
    lattice holds.
    """

    graph_size: int
    vocab_size: int
    hidden_dim: int
    log_transition: np.ndarray  # (L, L); entry (k, j) = log E[k, j]
    log_emission: np.ndarray  # (L, |V|); entry (j, v) = log P[j, v]
    hidden_states: np.ndarray | None = None  # (L, d) or None when d == 0

    def __post_init__(self):
        lt = np.array(self.log_transition, dtype=np.float64, order="C")
        le = np.array(self.log_emission, dtype=np.float64, order="C")
        object.__setattr__(self, "log_transition", lt)
        object.__setattr__(self, "log_emission", le)
        if self.graph_size < 1 or self.vocab_size < 1 or self.hidden_dim < 0:
            raise DimensionError(
                f"bad dimensions L={self.graph_size} |V|={self.vocab_size} "
                f"d={self.hidden_dim}"
            )
        L, V, d = self.graph_size, self.vocab_size, self.hidden_dim
        if lt.shape != (L, L):
            raise DimensionError(f"log_transition shape {lt.shape}, expected {(L, L)}")
        if le.shape != (L, V):
            raise DimensionError(f"log_emission shape {le.shape}, expected {(L, V)}")
        if d > 0:
            if self.hidden_states is None:
                raise DimensionError("hidden_dim > 0 but hidden_states absent")
            hs = np.array(self.hidden_states, dtype=np.float64, order="C")
            if hs.shape != (L, d):
                raise DimensionError(f"hidden_states shape {hs.shape}, expected {(L, d)}")
            object.__setattr__(self, "hidden_states", hs)
            hs.setflags(write=False)
        else:
            object.__setattr__(self, "hidden_states", None)
        lt.setflags(write=False)
        le.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, DagLattice):
            return NotImplemented
        if (self.graph_size, self.vocab_size, self.hidden_dim) != (
            other.graph_size,
            other.vocab_size,
            other.hidden_dim,
        ):
            return False
        if not np.array_equal(self.log_transition, other.log_transition):
            return False
        if not np.array_equal(self.log_emission, other.log_emission):
            return False
        if self.hidden_states is None:
            return other.hidden_states is None
        return np.array_equal(self.hidden_states, other.hidden_states)


@dataclass(frozen=True)
class TargetSequence:
    """Integer token-id sequence of length M >= 1."""

    tokens: np.ndarray

    def __post_init__(self):
        toks = np.ascontiguousarray(self.tokens, dtype=np.int64)
        if toks.ndim != 1 or toks.size < 1:
            raise DimensionError("target must be a non-empty 1-D token sequence")
        object.__setattr__(self, "tokens", toks)
        toks.setflags(write=False)

    def __len__(self):
        return int(self.tokens.size)

    def __eq__(self, other):
        if not isinstance(other, TargetSequence):
            return NotImplemented
        return np.array_equal(self.tokens, other.tokens)


@dataclass(frozen=True)
class VertexPath:
    """Strictly increasing 0-based vertex indices from 0 to L-1."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        if not verts:
            raise DimensionError("path must be non-empty")
        if any(b <= a for a, b in zip(verts, verts[1:])):
            raise ValueError(f"path vertices must be strictly increasing: {verts}")
        object.__setattr__(self, "vertices", verts)

    def one_based(self):
        return tuple(v + 1 for v in self.vertices)

    def __len__(self):
        return len(self.vertices)


@dataclass
class Violation:
    kind: str
    index: int
    deviation: float


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, index, deviation):
        self.violations.append(Violation(kind, index, float(deviation)))


def validate(lattice: DagLattice, tolerance: float = NORM_TOLERANCE) -> ValidationReport:
    """Check the lattice invariants; never raises, returns a full report.

    Checks, per row: no probability mass at or below the diagonal of the
    transition matrix, rows 0..L-2 normalized over successors, the final row
    empty, emission rows normalized, and no positive (p > 1) log entries.
    """
    report = ValidationReport()
    L = lattice.graph_size
    lt, le = lattice.log_transition, lattice.log_emission
    lower = np.tri(L, dtype=bool)  # entries (k, j) with j <= k

    for k in np.flatnonzero(np.any((lt > NEG_INF) & lower, axis=1)):
        report.add("lower_triangle_mass", int(k), float(np.exp(logsumexp(lt[k, : k + 1]))))

    dev = np.abs(logsumexp(np.where(lower[:-1], NEG_INF, lt[:-1]), axis=1))
    for k in np.flatnonzero(~(dev <= tolerance)):  # catches NaN too
        report.add("transition_row_norm", int(k), dev[k])
    last = lt[L - 1]
    if np.any(last > NEG_INF):
        report.add("final_row_mass", L - 1, float(np.exp(logsumexp(last))))

    dev = np.abs(logsumexp(le, axis=1))
    for j in np.flatnonzero(~(dev <= tolerance)):
        report.add("emission_row_norm", int(j), dev[j])

    for name, mat in (("transition", lt), ("emission", le)):
        pos = np.argwhere(mat > 0.0)
        for row in np.unique(pos[:, 0]) if pos.size else ():
            report.add(f"positive_{name}_entry", int(row), float(np.max(mat[row])))
    return report


def build_random(graph_size, vocab_size, hidden_dim=0, seed=0) -> DagLattice:
    """Random valid lattice, deterministic in the seed.

    Transition rows k < L-1 are normalized over successors j > k; emission
    rows are normalized over the vocabulary; hidden states are uniform on
    [-1, 1). Row weights are bounded away from zero so no edge degenerates.
    """
    L, V, d = int(graph_size), int(vocab_size), int(hidden_dim)
    rng = np.random.default_rng(seed)
    lt = np.full((L, L), NEG_INF)
    for k in range(L - 1):
        w = rng.random(L - k - 1) + 0.1
        lt[k, k + 1 :] = np.log(w / w.sum())
    # in place, so that only one (L, V) array is alive when DagLattice copies it
    le = rng.random((L, V)) + 0.1
    le /= le.sum(axis=1, keepdims=True)
    np.log(le, out=le)
    hs = rng.uniform(-1.0, 1.0, size=(L, d)) if d > 0 else None
    return DagLattice(L, V, d, lt, le, hs)


def _inf_to_null(matrix):
    return [
        [None if v == NEG_INF else float(v) for v in row] for row in np.asarray(matrix)
    ]


def _number(v):
    """A log-matrix entry that is neither null nor a float, as a float: an
    integer (or a numpy number from a library caller) is that number, and a
    string or a boolean is not a number."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        return float(v)
    raise TypeError(f"entry {json.dumps(v)[:40]} is not a number")


def _null_to_inf(rows, name):
    try:
        # float(v) would let strings and booleans in; the class check that
        # replaces it costs no more on the nulls and floats that make up
        # nearly every entry
        return np.array(
            [[NEG_INF if v is None else v if v.__class__ is float else _number(v) for v in row]
             for row in rows],
            dtype=np.float64,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeFormatError(f"field {name!r}: {exc}") from exc


def _number_rows(rows, name):
    """Rows of JSON numbers as a float64 matrix; null, strings and booleans
    are format errors that name the field."""
    try:
        bad = [v for row in rows for v in row if type(v) not in (int, float)]
        if not bad:
            return np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeFormatError(f"field {name!r}: {exc}") from exc
    raise LatticeFormatError(f"field {name!r}: entry {json.dumps(bad[0])[:40]} is not a number")


def lattice_to_json_obj(lattice: DagLattice) -> dict:
    obj = {
        "graph_size": lattice.graph_size,
        "vocab_size": lattice.vocab_size,
        "hidden_dim": lattice.hidden_dim,
        "log_transition": _inf_to_null(lattice.log_transition),
        "log_emission": _inf_to_null(lattice.log_emission),
    }
    if lattice.hidden_states is not None:
        obj["hidden_states"] = [[float(v) for v in row] for row in lattice.hidden_states]
    return obj


def lattice_from_json_obj(obj: dict) -> DagLattice:
    if not isinstance(obj, dict):
        raise LatticeFormatError("top-level JSON value must be an object")
    for key in ("graph_size", "vocab_size", "hidden_dim", "log_transition", "log_emission"):
        if key not in obj:
            raise LatticeFormatError(f"missing field {key!r}")
    for key in ("graph_size", "vocab_size", "hidden_dim"):
        if type(obj[key]) is not int:  # bool is a subclass of int
            raise LatticeFormatError(
                f"field {key!r}: {json.dumps(obj[key])[:40]} is not an integer"
            )
    lt = _null_to_inf(obj["log_transition"], "log_transition")
    le = _null_to_inf(obj["log_emission"], "log_emission")
    hs = obj.get("hidden_states")
    if hs is not None:
        hs = _number_rows(hs, "hidden_states")
    return DagLattice(obj["graph_size"], obj["vocab_size"], obj["hidden_dim"], lt, le, hs)


def save_lattice(lattice: DagLattice, path, fmt="json"):
    if fmt == "json":
        with open(path, "w") as fh:
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python one, at about twice the cost for the same bytes
            fh.write(json.dumps(lattice_to_json_obj(lattice)))
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(
                struct.pack(
                    "<IIII",
                    BINARY_VERSION,
                    lattice.graph_size,
                    lattice.vocab_size,
                    lattice.hidden_dim,
                )
            )
            fh.write(lattice.log_transition.astype("<f8").tobytes())
            fh.write(lattice.log_emission.astype("<f8").tobytes())
            if lattice.hidden_dim > 0:
                fh.write(lattice.hidden_states.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_lattice(path) -> DagLattice:
    """Load a lattice, auto-detecting binary vs JSON by the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == BINARY_MAGIC:
            return _load_binary_body(fh, path)
    with open(path, "r") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LatticeFormatError(f"{path}: invalid JSON at offset {exc.pos}") from exc
    return lattice_from_json_obj(obj)


def _load_binary_body(fh, path):
    header = fh.read(16)
    if len(header) < 16:
        raise LatticeFormatError(f"{path}: truncated binary header")
    version, L, V, d = struct.unpack("<IIII", header)
    if version != BINARY_VERSION:
        raise LatticeFormatError(f"{path}: unsupported binary version {version}")
    # check the declared size against the file before reading anything, so
    # a corrupt header cannot ask for gigabytes
    declared = 8 * L * (L + V + d)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if declared != left:
        raise LatticeFormatError(
            f"{path}: header declares L={L}, vocab={V}, d={d}, which is "
            f"{declared} bytes of matrices, but {left} bytes follow it"
        )

    def read_mat(rows, cols):
        # a read-only view of the bytes; DagLattice copies it into its own array
        buf = fh.read(rows * cols * 8)
        return np.frombuffer(buf, dtype="<f8").reshape(rows, cols)

    lt = read_mat(L, L)
    le = read_mat(L, V)
    hs = read_mat(L, d) if d > 0 else None
    return DagLattice(L, V, d, lt, le, hs)


def load_target(path) -> TargetSequence:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LatticeFormatError(f"{path}: invalid JSON at offset {exc.pos}") from exc
    if not isinstance(obj, list) or not all(type(t) is int for t in obj):  # no booleans
        raise LatticeFormatError(f"{path}: target file must be a JSON array of integers")
    return TargetSequence(np.array(obj, dtype=np.int64))


def save_target(target: TargetSequence, path):
    with open(path, "w") as fh:
        fh.write(json.dumps([int(t) for t in target.tokens]))
