"""Lattice data model, validation, random construction, and (de)serialization.

A lattice is an L-vertex DAG with edges only from lower to higher vertex
indices. Vertices emit tokens (log_emission), edges carry transition
probability (log_transition, strictly upper triangular in probability mass).
Vertex indices are 0-based here and in files, 1-based in docs and CLI output.
Every input file is read here: one that cannot be read, or holds a value its
field does not accept, raises LatticeFormatError naming the file or field.
Numbers must be finite, except -inf in the log matrices, where a finite
entry must also be smaller in magnitude than the largest float over 8 L.
"""

import json
import math
import numbers
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .logspace import NEG_INF, logsumexp

NORM_TOLERANCE = 1e-4

BINARY_MAGIC = b"DALT"
BINARY_VERSION = 1

_DIMENSIONS = ("graph_size", "vocab_size", "hidden_dim")
# a lattice's arrays in file order, each with whether it may hold -inf (null in JSON)
_ARRAYS = (("log_transition", True), ("log_emission", True), ("hidden_states", False))


class LatticeFormatError(ValueError):
    """Unreadable or malformed input file (bad JSON, bad header, bad field)."""


class DimensionError(ValueError):
    """A lattice or target that breaks a structural invariant: a shape that
    disagrees with the declared dimensions, an edge that is not a DAG's, or
    an entry that is not finite (-inf aside in the log matrices) or whose
    path sums could overflow."""


def memo(lattice, name, key, build):
    """build() for the last key asked under name, kept in the lattice's
    ``__dict__`` outside the dataclass fields, so it takes no part in
    ``==``, ``repr`` or serialization. A new key replaces the entry whole,
    so an entry only ever holds what was built for its own key.

    An entry cannot go stale: a lattice copies every array it is given into
    a read-only array of its own, so no view a caller kept can change what
    an entry was built from. Threads sharing a lattice may build the same
    entry twice; each gets what it built.
    """
    entry = lattice.__dict__.get(name)
    if entry is None or entry[0] != key:
        entry = lattice.__dict__[name] = key, build()
    return entry[1]


def aligned_empty(shape):
    """An uninitialised C-ordered float64 array of the given shape tuple,
    starting on a 64-byte boundary: malloc promises numpy only 16 bytes, so
    a kernel's 64-byte vector stores would otherwise split cache lines."""
    buf = np.empty(math.prod(shape) + 7)  # 7 spare entries to reach a boundary
    start = -buf.ctypes.data % 64 // 8
    # two slices, as an empty buf[start:start] would keep buf's own address
    return buf[start:][:buf.size - 7].reshape(shape)


@dataclass(frozen=True, eq=False)
class DagLattice:
    """Immutable (E, P, V) triple in log space plus dimensions.

    Construction enforces the structural invariants, and raises
    DimensionError naming the field when one fails:

    - L >= 1, |V| >= 1, d >= 0, each an integer (not a bool), kept as an int;
    - log_transition is (L, L), log_emission (L, |V|), and hidden_states
      (L, d) when d > 0 (absent when d == 0);
    - the graph is a DAG: every log_transition entry on or below the
      diagonal is exactly -inf, so edges run only from lower to higher
      vertices and the final row is empty;
    - every log-matrix entry is -inf or finite with magnitude below
      finfo(float64).max / (8 L), and every hidden state is finite: NaN,
      +inf and huge entries fail, and the error names the row and column.
      So no sum of up to 8 L entries, such as a path score, can overflow.

    Probability normalisation and positive entries are ``validate``'s to
    report, not construction's. ``dp`` and ``decode`` rely on these
    invariants: their tables sum and maximise over strictly increasing
    paths of finite scores.

    The lattice owns its arrays: construction copies every array it is
    given into a new read-only float64 array, so no view the caller kept
    can change it afterwards. ``memo`` relies on that.
    """

    graph_size: int
    vocab_size: int
    hidden_dim: int
    log_transition: np.ndarray  # (L, L); entry (k, j) = log E[k, j]
    log_emission: np.ndarray  # (L, |V|); entry (j, v) = log P[j, v]
    hidden_states: np.ndarray | None = None  # (L, d) or None when d == 0

    def __post_init__(self):
        for name in _DIMENSIONS:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        L, V, d = self.graph_size, self.vocab_size, self.hidden_dim
        if L < 1 or V < 1 or d < 0:
            raise DimensionError(f"bad dimensions L={L} |V|={V} d={d}")
        if d > 0 and self.hidden_states is None:
            raise DimensionError("hidden_dim > 0 but hidden_states absent")
        # path sums of up to 8 L log-matrix entries below big cannot overflow
        big = np.finfo(np.float64).max / (8.0 * L)
        arrays = [("log_transition", (L, L), big), ("log_emission", (L, V), big)]
        if d > 0:
            arrays.append(("hidden_states", (L, d), np.inf))
        else:
            object.__setattr__(self, "hidden_states", None)
        for name, shape, _ in arrays:
            arr = np.array(getattr(self, name), dtype=np.float64, order="C")
            if arr.shape != shape:
                raise DimensionError(f"{name} shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lt = self.log_transition
        lower = np.tri(L, dtype=bool)  # entries (k, j) with j <= k
        if (lt[lower] != NEG_INF).any():  # NaN fails too
            k, j = divmod(int(np.flatnonzero((lt != NEG_INF) & lower)[0]), L)
            raise DimensionError(f"log_transition row {k}: entry {lt[k, j]} at column {j} is on "
                                 "or below the diagonal, where a DAG has no edge (-inf)")
        # A maximum is NaN when any entry is; entries at or below -bound are
        # looked at one by one only when the minimum is, as it is when one is
        # masked. Only a finite bound lets -inf, an absent edge or emission, in
        for name, _, bound in arrays:
            arr, finite = getattr(self, name), bound < np.inf
            if arr.max() < bound and (arr.min() > -bound
                                      or finite and ((arr > -bound) | (arr == NEG_INF)).all()):
                continue
            bad = ~((np.abs(arr) < bound) | finite & (arr == NEG_INF))
            k, j = divmod(int(np.flatnonzero(bad)[0]), arr.shape[1])
            limit = f" of magnitude below {bound:.4g}, the largest float over 8 L" if finite else ""
            raise DimensionError(f"{name} row {k}: entry {arr[k, j]} at column {j} is not a "
                                 f"finite number{limit}")

    def __eq__(self, other):
        if not isinstance(other, DagLattice):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def target_tokens(value) -> np.ndarray:
    """A target as a non-empty 1-D int64 array, read as strictly as
    load_integers reads a file: numpy must make an integer array of it that
    casts to int64 without loss, so floats, booleans (in a list of integers
    too) and uint64 fail with a ValueError naming the target. An int64
    array comes back as it is."""
    toks = np.asarray(value)
    if toks.ndim != 1 or toks.size < 1:
        raise DimensionError("target must be a non-empty 1-D token sequence")
    if (toks.dtype.kind not in "iu" or not np.can_cast(toks.dtype, np.int64)
            or value is not toks and any(isinstance(t, (bool, np.bool_)) for t in value)):
        raise ValueError("target must hold 64-bit integers, not booleans, floats or other values")
    return toks.astype(np.int64, copy=False)


def integer_at_least(value, name, least):
    """value as an int when it is an integer, not a bool, of at least
    `least`; a ValueError naming the argument otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def real_number(value, name):
    """value itself when float() takes it and it is not a string; a
    ValueError naming the argument otherwise, as for None or an integer
    beyond the float range."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            float(value)
            return value
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a real number within the float range, got {value!r:.60}")


@dataclass(frozen=True, eq=False)
class TargetSequence:
    """Integer token-id sequence of length M >= 1, in a read-only int64
    array of its own (see target_tokens)."""

    tokens: np.ndarray

    def __post_init__(self):
        toks = target_tokens(self.tokens).copy()
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


def validate(lattice: DagLattice) -> ValidationReport:
    """Check the probability invariants; never raises, returns a full report.

    Reports, in this order: transition rows 0..L-2 not normalized over
    their successors, emission rows not normalized over the vocabulary, and
    rows with positive (p > 1) log entries in either matrix. The DAG shape
    is not checked here: a DagLattice cannot be built without it.
    """
    report = ValidationReport()
    lt, le = lattice.log_transition, lattice.log_emission

    for name, mat in (("transition", lt[:-1]), ("emission", le)):
        dev = np.abs(logsumexp(mat, axis=1))
        for k in np.flatnonzero(dev > NORM_TOLERANCE):
            report.add(f"{name}_row_norm", int(k), dev[k])

    for name, mat in (("transition", lt), ("emission", le)):
        for row in np.flatnonzero((mat > 0.0).any(axis=1)):
            report.add(f"positive_{name}_entry", int(row), float(np.max(mat[row])))
    return report


def build_random(graph_size, vocab_size, hidden_dim=0, seed=0) -> DagLattice:
    """Random valid lattice, deterministic in the seed.

    Transition rows k < L-1 are normalized over successors j > k; emission
    rows are normalized over the vocabulary; hidden states are uniform on
    [-1, 1). Row weights are bounded away from zero so no edge degenerates.
    """
    L = integer_at_least(graph_size, "graph_size", 1)
    V = integer_at_least(vocab_size, "vocab_size", 1)
    d = integer_at_least(hidden_dim, "hidden_dim", 0)
    rng = np.random.default_rng(integer_at_least(seed, "seed", 0))
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


def _number(v):
    """An entry that is neither a float nor a null read as -inf, as a float: an integer
    (or a numpy number from a library caller) is that number, anything else is not."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        return float(v)
    raise TypeError(f"entry {json.dumps(v)[:40]} is not a number")


def _finite(arr, where, neg_inf=False):
    """arr, when every entry is finite (or -inf, where neg_inf allows it)."""
    ok = arr < np.inf if neg_inf else np.isfinite(arr)  # NaN fails both
    if not ok.all():
        raise LatticeFormatError(f"{where}: entry {arr[~ok][0]} is not a finite number")
    return arr


def _null_to_inf(rows, name, neg_inf):
    """A lattice array from JSON as float64; null is -inf where neg_inf allows it."""
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)):
        raise LatticeFormatError(f"field {name!r}: not rows of numbers")
    # numpy's own text for ragged rows names no row, and differs by version
    for k, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise LatticeFormatError(f"field {name!r} row {k}: {len(row)} entries, "
                                     f"row 0 has {len(rows[0])}")
    try:
        # float(v) would let strings and booleans in; the class check that
        # replaces it costs no more on the nulls and floats that make up
        # nearly every entry
        arr = np.array(
            [[NEG_INF if v is None and neg_inf else v if v.__class__ is float else _number(v)
              for v in row] for row in rows],
            dtype=np.float64,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeFormatError(f"field {name!r}: {exc}") from exc
    return _finite(arr, f"field {name!r}", neg_inf)


def _floats(value, where):
    """Nested JSON arrays of finite numbers as a float64 array; anything else
    (rows of unequal length, an integer too large for a float) names `where`."""
    try:
        arr = np.array(value, dtype=object)
        # bool is a subclass of int; a list here means rows of unequal length
        bad = [v for v in arr.flat if type(v) not in (int, float)]
        if bad:
            what = "a row of unequal length" if type(bad[0]) is list else "not a number"
            raise ValueError(f"entry {json.dumps(bad[0])[:40]} is {what}")
        arr = arr.astype(np.float64)
    except (ValueError, OverflowError) as exc:
        raise LatticeFormatError(f"{where}: {exc}") from exc
    return _finite(arr, where)


def lattice_to_json_obj(lattice: DagLattice) -> dict:
    """The lattice as JSON values; save_lattice writes its -inf floats as null."""
    obj = {name: getattr(lattice, name) for name in _DIMENSIONS}
    for name, _ in _ARRAYS:
        if getattr(lattice, name) is not None:
            obj[name] = getattr(lattice, name).tolist()
    return obj


def lattice_from_json_obj(obj: dict) -> DagLattice:
    if not isinstance(obj, dict):
        raise LatticeFormatError("top-level JSON value must be an object")
    keys = (*_DIMENSIONS, *(name for name, _ in _ARRAYS))
    required = keys[:-1]  # the hidden states may be absent, or null
    for key in obj:
        if key not in keys:
            raise LatticeFormatError(f"unknown field {key[:40]!r}")
    for key in required:
        if key not in obj:
            raise LatticeFormatError(f"missing field {key!r}")
    for key in _DIMENSIONS:
        if type(obj[key]) is not int:  # bool is a subclass of int
            raise LatticeFormatError(
                f"field {key!r}: {json.dumps(obj[key])[:40]} is not an integer"
            )
    arrays = [_null_to_inf(obj[name], name, neg_inf) for name, neg_inf in _ARRAYS
              if name in required or obj.get(name) is not None]
    return DagLattice(*(obj[key] for key in _DIMENSIONS), *arrays)


def save_lattice(lattice: DagLattice, path, fmt="json"):
    if fmt == "json":
        with open(path, "w") as fh:
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python one, at about twice the cost for the same bytes;
            # -Infinity can only be a -inf entry of a log matrix
            fh.write(json.dumps(lattice_to_json_obj(lattice)).replace("-Infinity", "null"))
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
            for name, _ in _ARRAYS:
                if getattr(lattice, name) is not None:
                    fh.write(getattr(lattice, name).astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _read(path):
    """The bytes of an input file; one that cannot be read is a format error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise LatticeFormatError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _parse_json(data, path):
    """The JSON value in a file's bytes, which must be UTF-8 text."""
    try:
        # -Infinity is -inf; NaN and Infinity stay strings, which no field accepts
        return json.loads(data.decode(), parse_constant=lambda t: NEG_INF if t[0] == "-" else t)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise LatticeFormatError(f"{path}: {exc}") from exc


def load_lattice(path) -> DagLattice:
    """Load a lattice, auto-detecting binary vs JSON by the magic bytes."""
    data = _read(path)
    if data[:4] != BINARY_MAGIC:
        return lattice_from_json_obj(_parse_json(data, path))
    if len(data) < 20:
        raise LatticeFormatError(f"{path}: truncated binary header")
    version, L, V, d = struct.unpack_from("<IIII", data, 4)
    if version != BINARY_VERSION:
        raise LatticeFormatError(f"{path}: unsupported binary version {version}")
    declared = 8 * L * (L + V + d)
    if declared != len(data) - 20:
        raise LatticeFormatError(
            f"{path}: header declares L={L}, vocab={V}, d={d}, which is "
            f"{declared} bytes of matrices, but {len(data) - 20} bytes follow it"
        )
    # read-only views of the bytes; DagLattice copies them into its own arrays
    flat = np.split(np.frombuffer(data, dtype="<f8", offset=20), [L * L, L * (L + V)])
    arrays = [_finite(arr.reshape(L, n), f"{path}: field {name!r}", neg_inf)
              for arr, n, (name, neg_inf) in zip(flat, (L, V, d), _ARRAYS)]
    return DagLattice(L, V, d, *arrays)  # the (L, 0) hidden states are ignored when d == 0


def load_numbers(path) -> np.ndarray:
    """``pipeline --states`` or a loss file: see _floats."""
    return _floats(_parse_json(_read(path), path), path)


def load_integers(path, what) -> np.ndarray:
    """A JSON array of int64 integers, not booleans, as int64; `what` names it in errors."""
    obj = _parse_json(_read(path), path)
    if isinstance(obj, list) and all(type(t) is int and -(2**63) <= t < 2**63 for t in obj):
        return np.array(obj, dtype=np.int64)
    raise LatticeFormatError(f"{path}: {what} must be a JSON array of 64-bit integers")


def load_target(path) -> TargetSequence:
    return TargetSequence(load_integers(path, "target file"))


def save_target(target: TargetSequence, path):
    with open(path, "w") as fh:
        fh.write(json.dumps([int(t) for t in target.tokens]))
