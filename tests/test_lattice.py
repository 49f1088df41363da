import json

import numpy as np
import pytest

from daglattice import (
    DagLattice,
    TargetSequence,
    VertexPath,
    build_random,
    load_lattice,
    nll,
    save_lattice,
    validate,
)
from daglattice.lattice import (
    DimensionError,
    LatticeFormatError,
    lattice_from_json_obj,
    lattice_to_json_obj,
)
from daglattice.logspace import NEG_INF, logsumexp

import reference_kernels as ref
from conftest import lattice_from_probs


def test_validate_single_edge_lattice_clean():
    lat = lattice_from_probs([[0.0, 1.0], [0.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])
    assert validate(lat).ok


def test_backward_edge_is_a_construction_error():
    lt = np.full((2, 2), NEG_INF)
    lt[0, 1] = 0.0
    lt[1, 0] = -0.5  # backward edge
    le = np.log(np.full((2, 2), 0.5))
    with pytest.raises(DimensionError, match=r"log_transition row 1: entry -0\.5 at column 0"):
        DagLattice(2, 2, 0, lt, le)


@pytest.mark.parametrize("value", [-1.0, 0.0, 2.0, np.nan, np.inf])
def test_entries_on_or_below_the_diagonal_are_construction_errors(value):
    rng = np.random.default_rng(7)
    for _ in range(50):
        L = int(rng.integers(1, 9))
        lat = build_random(L, 3, 2, int(rng.integers(1 << 30)))
        lt = np.array(lat.log_transition)
        k = int(rng.integers(L))
        lt[k, int(rng.integers(k + 1))] = value
        with pytest.raises(DimensionError, match=f"log_transition row {k}:"):
            DagLattice(L, 3, 2, lt, lat.log_emission, lat.hidden_states)


@pytest.mark.parametrize("field, value", [
    ("log_transition", np.nan), ("log_transition", np.inf),
    ("log_emission", np.nan), ("log_emission", np.inf),
    ("hidden_states", np.nan), ("hidden_states", np.inf), ("hidden_states", -np.inf),
])
def test_nan_and_inf_entries_are_construction_errors(field, value):
    """NaN and +inf fail anywhere, -inf too in the hidden states; the error
    names the field, the row and the column. Log E is corrupted above the
    diagonal, where a DAG may have an edge."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        L, V, d = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        lat = build_random(L, V, d, int(rng.integers(1 << 30)))
        arrays = {name: np.array(getattr(lat, name))
                  for name in ("log_transition", "log_emission", "hidden_states")}
        arr = arrays[field]
        if field == "log_transition":
            k, j = sorted(int(v) for v in rng.choice(L, size=2, replace=False))
        else:
            k, j = int(rng.integers(L)), int(rng.integers(arr.shape[1]))
        arr[k, j] = value
        with pytest.raises(DimensionError,
                           match=f"{field} row {k}: entry {value} at column {j} is not a finite"):
            DagLattice(L, V, d, arrays["log_transition"], arrays["log_emission"],
                       arrays["hidden_states"])


def test_validate_flags_row_normalization_deviation():
    lt = np.full((2, 2), NEG_INF)
    lt[0, 1] = np.log(0.9)
    le = np.log(np.full((2, 2), 0.5))
    lat = DagLattice(2, 2, 0, lt, le)
    report = validate(lat)
    [v] = [v for v in report.violations if v.kind == "transition_row_norm"]
    assert v.index == 0
    assert v.deviation == pytest.approx(-np.log(0.9), abs=1e-12)


def test_validate_reports_every_kind_in_order():
    lat = build_random(5, 3, 0, 1)
    lt, le = np.array(lat.log_transition), np.array(lat.log_emission)
    lt[1, 3] += 0.5  # transition_row_norm at row 1
    le[3, 0] -= 0.5  # emission_row_norm at row 3
    lt[0, 2] = 0.5  # positive_transition_entry and transition_row_norm at row 0
    le[1, 2] = 0.25  # positive_emission_entry and emission_row_norm at row 1
    report = validate(DagLattice(5, 3, 0, lt, le))
    assert [(v.kind, v.index) for v in report.violations] == [
        ("transition_row_norm", 0),
        ("transition_row_norm", 1),
        ("emission_row_norm", 1),
        ("emission_row_norm", 3),
        ("positive_transition_entry", 0),
        ("positive_emission_entry", 1),
    ]
    assert all(type(v.index) is int for v in report.violations)
    # backward mass (row 2) and final-row mass (row 4) cannot reach validate
    for k, j in ((2, 1), (4, 4)):
        bad = lt.copy()
        bad[k, j] = -1.0
        with pytest.raises(DimensionError, match=f"log_transition row {k}:"):
            DagLattice(5, 3, 0, bad, le)


def test_validate_never_raises_on_an_unshifted_row():
    # logsumexp would not shift a row whose maximum is +inf or NaN, so e^1000
    # beside it would overflow; such a row cannot be built. Nor can a finite
    # row with -1e308 beside 1e308, whose shift would overflow: every finite
    # entry is below the largest float over 8 L in magnitude. A row at just
    # under that bound is built, and validate reports it without a warning
    lat = build_random(4, 3, 0, 2)
    lt = np.array(lat.log_transition)
    for top in (np.inf, np.nan):
        lt[0, 1:3] = top, 1000.0
        with pytest.raises(DimensionError, match=f"log_transition row 0: entry {top} at column 1"):
            DagLattice(4, 3, 0, lt, lat.log_emission)
    big = np.finfo(np.float64).max / 32
    for low, high, col in ((-1e308, 1e308, 1), (-big / 2, big, 2), (-big, big / 2, 1)):
        lt[0, 1:3] = low, high
        with pytest.raises(DimensionError, match=f"log_transition row 0: entry .* at column {col} "
                                                 "is not a finite number of magnitude below"):
            DagLattice(4, 3, 0, lt, lat.log_emission)
    lt[0, 1:3] = -np.nextafter(big, 0), np.nextafter(big, 0)
    report = validate(DagLattice(4, 3, 0, lt, lat.log_emission))
    assert [(v.kind, v.index) for v in report.violations] == [
        ("transition_row_norm", 0), ("positive_transition_entry", 0)]


def _corrupted(rng):
    """A random lattice with a few entries overwritten by values that break
    one invariant or another: denormalised rows, removed edges, positive
    entries. Log E is only corrupted above the diagonal, as a lattice
    with anything else below it cannot be built."""
    L, V = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    lat = build_random(L, V, 0, int(rng.integers(1 << 30)))
    lt, le = np.array(lat.log_transition), np.array(lat.log_emission)
    for _ in range(int(rng.integers(0, 4))):
        if L > 1 and rng.random() < 0.6:
            mat = lt
            r, c = sorted(int(v) for v in rng.choice(L, size=2, replace=False))
        else:
            mat = le
            r, c = int(rng.integers(L)), int(rng.integers(V))
        mat[r, c] = rng.choice([NEG_INF, 0.5, mat[r, c] + 1e-3, -3.0, mat[r, c] - 1e-6])
    return DagLattice(L, V, 0, lt, le)


def test_validate_matches_row_by_row_reference():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        lat = _corrupted(rng)
        got = [(v.kind, v.index, v.deviation) for v in validate(lat).violations]
        want = ref.validate(lat, 1e-4)
        assert [g[:2] for g in got] == [w[:2] for w in want]
        # the row reductions sum in another order, so deviations may differ
        # in the last bits
        np.testing.assert_allclose([g[2] for g in got], [w[2] for w in want],
                                   rtol=1e-12, atol=1e-15)


def test_build_random_single_vertex():
    lat = build_random(1, 3, 0, 7)
    assert lat.graph_size == 1
    assert np.all(lat.log_transition == NEG_INF)
    assert lat.log_emission.shape == (1, 3)
    assert validate(lat).ok


def test_build_random_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_lattice(build_random(8, 5, 4, 42), a, "binary")
    save_lattice(build_random(8, 5, 4, 42), b, "binary")
    assert a.read_bytes() == b.read_bytes()


def test_build_random_passes_validation_tightly():
    lat = build_random(8, 5, 4, 42)
    assert np.all(np.abs(logsumexp(lat.log_transition[:-1], axis=1)) <= 1e-12)
    assert np.all(np.abs(logsumexp(lat.log_emission, axis=1)) <= 1e-12)
    assert validate(lat).ok


@pytest.mark.parametrize("kwargs, name", [
    ({"graph_size": 2.5}, "graph_size"),      # a float is not truncated
    ({"graph_size": True}, "graph_size"),     # nor is a bool read as 1
    ({"graph_size": 0}, "graph_size"),
    ({"vocab_size": 0}, "vocab_size"),
    ({"vocab_size": np.float64(3)}, "vocab_size"),
    ({"hidden_dim": -1}, "hidden_dim"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
])
def test_build_random_rejects_sizes_and_seeds_that_are_not_integers_in_range(kwargs, name):
    args = {"graph_size": 4, "vocab_size": 3, "hidden_dim": 0, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        build_random(**args)


def test_validate_checks_rows_at_the_fixed_tolerance():
    lat = build_random(4, 3, 0, 1)
    lowered = DagLattice(4, 3, 0, lat.log_transition, lat.log_emission - 1.0)
    assert [v.kind for v in validate(lowered).violations] == ["emission_row_norm"] * 4
    with pytest.raises(TypeError):
        validate(lowered, tolerance=float("nan"))


@pytest.mark.parametrize("fmt", ["json", "binary"])
def test_round_trip(tmp_path, fmt):
    lat = build_random(8, 5, 4, 42)
    path = tmp_path / f"lat.{fmt}"
    save_lattice(lat, path, fmt)
    assert load_lattice(path) == lat


def test_json_null_is_neg_inf(tmp_path):
    obj = {
        "graph_size": 2, "vocab_size": 2, "hidden_dim": 0,
        "log_transition": [[None, 0.0], [None, None]],
        "log_emission": [[-0.5, -0.9], [-0.7, -0.7]],
    }
    lat = lattice_from_json_obj(obj)
    assert lat.log_transition[0, 0] == NEG_INF
    assert lat.log_transition[0, 1] == 0.0
    # so are -Infinity, which json.dumps writes for -inf, and an overflowing
    # negative literal
    for neg_inf in ("-Infinity", "-1e999"):
        (tmp_path / "lat.json").write_text(json.dumps(obj).replace("null", neg_inf))
        assert load_lattice(tmp_path / "lat.json") == lat


def test_bad_magic_is_parse_error(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(LatticeFormatError):
        load_lattice(path)


def test_truncated_binary_is_parse_error(tmp_path):
    lat = build_random(4, 3, 0, 1)
    path = tmp_path / "lat.bin"
    save_lattice(lat, path, "binary")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(LatticeFormatError):
        load_lattice(path)


def test_dimension_mismatch_rejected():
    # shape errors come first: the second log E would also fail the DAG check
    with pytest.raises(DimensionError, match="log_transition shape"):
        DagLattice(3, 2, 0, np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(DimensionError, match="hidden_states absent"):
        DagLattice(2, 2, 3, np.zeros((2, 2)), np.zeros((2, 2)), None)
    with pytest.raises(DimensionError, match=r"log_emission shape \(2, 2\), expected \(2, 3\)"):
        DagLattice(2, 3, 0, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError, match=r"hidden_states shape \(2, 2\), expected \(2, 3\)"):
        DagLattice(2, 2, 3, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    for dims in ((0, 2, 0), (2, 0, 0), (2, 2, -1)):
        with pytest.raises(DimensionError, match="bad dimensions"):
            DagLattice(*dims, np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_preserves_validate_verdict(tmp_path, seed):
    lat = build_random(6, 4, 2, seed)
    # corrupt one row on odd seeds so both verdicts are exercised
    if seed % 2:
        lt = np.array(lat.log_transition)
        lt[0, 1] += 0.5
        lat = DagLattice(6, 4, 2, lt, lat.log_emission, lat.hidden_states)
    path = tmp_path / "lat.json"
    save_lattice(lat, path, "json")
    assert validate(load_lattice(path)).ok == validate(lat).ok


def test_lattice_arrays_immutable():
    lat = build_random(4, 3, 2, 0)
    with pytest.raises(ValueError):
        lat.log_transition[0, 1] = 0.0
    with pytest.raises(ValueError):
        lat.hidden_states[0, 0] = 0.0


@pytest.mark.parametrize("tokens", [
    [], np.zeros(0, dtype=np.int64), [[0, 1]], np.zeros((2, 2), dtype=np.int64),
])
def test_target_must_be_a_non_empty_1d_sequence(tokens):
    with pytest.raises(DimensionError, match="target must be a non-empty 1-D token sequence"):
        TargetSequence(tokens)
    with pytest.raises(DimensionError, match="target must be a non-empty 1-D token sequence"):
        nll(build_random(3, 2, 0, 0), tokens)


@pytest.mark.parametrize("vertices, error, message", [
    ((), DimensionError, "path must be non-empty"),
    ((0, 2, 2), ValueError, "strictly increasing"),
    ((0, 3, 1), ValueError, "strictly increasing"),
])
def test_vertex_path_must_be_non_empty_and_increasing(vertices, error, message):
    with pytest.raises(error, match=message):
        VertexPath(vertices)


@pytest.mark.parametrize("value", [[1, 2], "lattice", None, 5])
def test_top_level_json_value_must_be_an_object(tmp_path, value):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(value))
    with pytest.raises(LatticeFormatError, match="top-level JSON value must be an object"):
        load_lattice(path)


@pytest.mark.parametrize("key", ["graph_size", "vocab_size", "hidden_dim",
                                 "log_transition", "log_emission"])
def test_missing_field_is_a_parse_error(key):
    obj = lattice_to_json_obj(build_random(3, 2, 0, 0))
    del obj[key]
    with pytest.raises(LatticeFormatError, match=f"missing field '{key}'"):
        lattice_from_json_obj(obj)


def test_save_lattice_refuses_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        save_lattice(build_random(3, 2, 0, 0), tmp_path / "lat.xml", "xml")
    assert not (tmp_path / "lat.xml").exists()
