import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenfit.core import (
    Axis,
    DenseTensor,
    DesignSpace,
    Normalizer,
    ObservationSet,
    build_design_space,
    encode_observations,
)
from tenfit.errors import ContractError, DegenerateDataError, SchemaError

LATTICE_AXES = ["geometry", "thickness", "ux", "uy", "uz"]
LATTICE_KINDS = {
    "geometry": "categorical",
    "thickness": "ordinal",
    "ux": "ordinal",
    "uy": "ordinal",
    "uz": "ordinal",
}


def crossed_barrel_records():
    records = []
    for n in (6, 8, 10, 12):
        for theta in range(0, 181, 22):  # 9 values
            for r in [round(1.5 + 0.1 * k, 1) for k in range(11)]:
                for t in (0.7, 0.8, 0.9):
                    records.append(
                        {"n_struts": n, "theta": theta, "radius": r, "thickness": t, "toughness": n + r}
                    )
    return records


class TestBuildDesignSpace:
    def test_lattice_shape(self, lattice_records):
        space = build_design_space(lattice_records, LATTICE_AXES, "stiffness", LATTICE_KINDS)
        assert space.shape() == (5, 2, 3, 3, 3)
        assert space.n_cells() == 270

    def test_crossed_barrel_shape(self):
        records = crossed_barrel_records()
        space = build_design_space(
            records,
            ["n_struts", "theta", "radius", "thickness"],
            "toughness",
            {n: "ordinal" for n in ("n_struts", "theta", "radius", "thickness")},
        )
        assert space.shape() == (4, 9, 11, 3)
        assert space.n_cells() == 1188

    def test_single_cell_space(self):
        space = build_design_space([{"a": 5, "y": 1.0}], ["a"], "y", {"a": "ordinal"})
        assert space.shape() == (1,)
        assert space.n_cells() == 1

    def test_missing_field_names_record_and_field(self):
        records = [{"a": 1, "y": 2.0}, {"a": 2}]
        with pytest.raises(SchemaError, match=r"record 1.*'y'"):
            build_design_space(records, ["a"], "y", {"a": "ordinal"})

    def test_non_numeric_ordinal_is_type_error(self):
        records = [{"a": "not-a-number", "y": 1.0}]
        with pytest.raises(TypeError):
            build_design_space(records, ["a"], "y", {"a": "ordinal"})

    def test_schema_deterministic_under_record_order(self, lattice_records):
        space_a = build_design_space(lattice_records, LATTICE_AXES, "stiffness", LATTICE_KINDS)
        rng = np.random.default_rng(1)
        shuffled = [lattice_records[i] for i in rng.permutation(len(lattice_records))]
        space_b = build_design_space(shuffled, LATTICE_AXES, "stiffness", LATTICE_KINDS)
        assert space_a == space_b

    def test_ordinal_values_sorted(self):
        records = [{"a": 3, "y": 0.0}, {"a": 1, "y": 1.0}, {"a": 2, "y": 2.0}]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        assert space.axes[0].values == (1.0, 2.0, 3.0)


class TestEncodeObservations:
    def test_minmax_endpoints(self):
        records = [{"a": i, "y": y} for i, y in enumerate((2.0, 4.0, 6.0))]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        obs = encode_observations(records, space)
        assert sorted(obs.values.tolist()) == [0.0, 0.5, 1.0]

    def test_lattice_fully_dense(self, lattice_records):
        space = build_design_space(lattice_records, LATTICE_AXES, "stiffness", LATTICE_KINDS)
        obs = encode_observations(lattice_records, space)
        assert obs.n == 270
        assert np.all(obs.values >= 0.0) and np.all(obs.values <= 1.0)

    def test_position_lookup(self):
        records = crossed_barrel_records()
        axes = ["n_struts", "theta", "radius", "thickness"]
        space = build_design_space(
            records, axes, "toughness", {n: "ordinal" for n in axes}
        )
        target = {
            "n_struts": space.axes[0].values[3],
            "theta": space.axes[1].values[8],
            "radius": space.axes[2].values[10],
            "thickness": space.axes[3].values[2],
            "toughness": 1.0,
        }
        obs = encode_observations([target, records[0]], space)
        assert (3, 8, 10, 2) in {tuple(row) for row in obs.indices}

    def test_unknown_axis_value(self):
        records = [{"a": 1, "y": 2.0}]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        with pytest.raises(SchemaError, match=r"'a'.*9"):
            encode_observations([{"a": 9, "y": 2.0}], space)

    def test_all_equal_outcomes_map_to_zero(self):
        records = [{"a": 1, "y": 3.0}, {"a": 2, "y": 3.0}]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        obs = encode_observations(records, space)
        assert obs.values.tolist() == [0.0, 0.0]

    def test_degenerate_external_normalizer(self):
        records = [{"a": 1, "y": 3.0}, {"a": 2, "y": 4.0}]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        with pytest.raises(DegenerateDataError):
            encode_observations(records, space, normalizer=Normalizer(3.0, 3.0))

    def test_duplicates_averaged_by_default(self):
        records = [
            {"a": 1, "y": 0.0},
            {"a": 1, "y": 4.0},
            {"a": 2, "y": 4.0},
        ]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        obs = encode_observations(records, space)
        assert obs.n == 2
        by_index = {tuple(i): v for i, v in zip(obs.indices, obs.values)}
        assert by_index[(0,)] == pytest.approx(0.5)  # mean(0, 4) -> 2 -> normalized

    @pytest.mark.parametrize(
        "outcomes, normalizer",
        [
            ([0.1, 0.2, 0.7, -0.0, 0.3, 1e-300, 0.0, 5e-324, 2.5, 0.1, 0.7], None),
            ([0.1, -0.0, 0.0, 0.3, 7.0, 0.0, 0.1, 1 / 3], Normalizer(0.0, 7.0)),
            ([-0.0, 1.3, -2.6, 1.3, -0.0, 0.1, 4.4, 0.2], Normalizer(-0.0, 4.4)),
            ([3.0] * 9, None),
        ],
        ids=["duplicates", "signed_zeros", "zero_minimum", "degenerate_range"],
    )
    def test_values_bit_equal_the_per_cell_reference(self, outcomes, normalizer):
        """One np.mean and one normalize call per cell, the form the
        vectorized encoding replaced, gives the same bits."""
        records = [{"a": i % 7, "y": y} for i, y in enumerate(outcomes)]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        obs = encode_observations(records, space, normalizer=normalizer)
        normalizer = normalizer or Normalizer.fit(outcomes)
        grouped = {}
        for record in records:
            grouped.setdefault(space.axes[0].index_of(record["a"]), []).append(record["y"])
        expected = [normalizer.normalize(float(np.mean(grouped[k]))) for k in sorted(grouped)]
        assert any(len(ys) == 1 for ys in grouped.values())
        assert any(len(ys) > 1 for ys in grouped.values())
        assert obs.values.tobytes() == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "ys, others, expected",
        [([8518819870301327.0] * 5, [], [0.0]), ([8.98846567431158e307] * 2, [], [0.0]),
         ([0.1] * 3, [0.0], [1.0, 0.0])],
        ids=["rounded", "overflowing", "rounded_with_range"],
    )
    def test_duplicate_mean_stays_within_its_records(self, ys, others, expected):
        # np.mean of five 8518819870301327.0 rounds below them, of three 0.1
        # above them, and of two 8.98846567431158e307 overflows; the cell's
        # mean is clamped back to its records' one value
        with np.errstate(over="ignore"):
            assert np.mean(ys) != ys[0]
        records = [{"a": 1, "y": y} for y in ys] + [{"a": 2, "y": y} for y in others]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        assert encode_observations(records, space).values.tolist() == expected

    def test_duplicates_rejected_in_strict_mode(self):
        records = [{"a": 1, "y": 0.0}, {"a": 1, "y": 4.0}]
        space = build_design_space(records, ["a"], "y", {"a": "ordinal"})
        with pytest.raises(ContractError):
            encode_observations(records, space, duplicates="error")


class TestNormalization:
    def test_invert_endpoints(self):
        norm = Normalizer(2.0, 6.0)
        assert norm.denormalize(0.0) == 2.0
        assert norm.denormalize(1.0) == 6.0
        assert norm.denormalize(0.5) == 4.0

    def test_round_trip_within_1e12_relative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = rng.normal(0, 100, size=30)
            y[0] += 1.0  # guarantee a non-degenerate range
            norm = Normalizer.fit(y)
            back = norm.denormalize(norm.normalize(y))
            assert np.all(np.abs(back - y) <= 1e-12 * np.maximum(np.abs(y), 1.0))

    @pytest.mark.parametrize(
        "y_min, y_max",
        [(-1.7976931348623157e308, 1.7976931348623157e308), (-9.9792015476736e291,
         1.7976931348623157e308), (2.0, 1.0), (float("nan"), 1.0), (0.0, float("inf"))],
        ids=["overflow", "just_overflow", "reversed", "nan", "infinite"],
    )
    def test_unrepresentable_range_rejected(self, y_min, y_max):
        # an infinite span would normalize every value to 0 without an error
        with pytest.raises(ContractError, match="not a finite range"):
            Normalizer(y_min, y_max)

    def test_fit_rejects_a_range_beyond_the_largest_float(self):
        with pytest.raises(ContractError, match="not a finite range"):
            Normalizer.fit([-9.9792015476736e291, 0.0, 1.7976931348623157e308])

    def test_invert_requires_positive_span(self):
        with pytest.raises(DegenerateDataError):
            Normalizer(1.0, 1.0).denormalize(0.5)


class TestObservationSetInvariants:
    def test_out_of_range_index_rejected(self):
        space = DesignSpace.from_shape((2, 2))
        with pytest.raises(ContractError):
            ObservationSet(
                space=space,
                indices=np.array([[0, 2]]),
                values=np.array([0.5]),
                normalizer=Normalizer(0, 1),
            )

    def test_duplicate_indices_rejected(self):
        space = DesignSpace.from_shape((2, 2))
        with pytest.raises(ContractError):
            ObservationSet(
                space=space,
                indices=np.array([[0, 1], [0, 1]]),
                values=np.array([0.5, 0.6]),
                normalizer=Normalizer(0, 1),
            )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_duplicate_check_matches_unique_rows(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
        cell = st.tuples(*(st.integers(0, size - 1) for size in shape))
        rows = data.draw(st.lists(cell, min_size=0, max_size=40, unique=True))
        if rows and data.draw(st.booleans(), label="add a duplicate"):
            copy = rows[data.draw(st.integers(0, len(rows) - 1))]
            rows.insert(data.draw(st.integers(0, len(rows))), copy)
        indices = np.array(rows, dtype=np.int64).reshape(len(rows), len(shape))
        duplicated = len(np.unique(indices, axis=0)) != len(rows)

        def build():
            return ObservationSet(
                space=DesignSpace.from_shape(shape),
                indices=indices,
                values=np.zeros(len(rows)),
                normalizer=Normalizer(0, 1),
            )

        if duplicated:
            with pytest.raises(ContractError, match="duplicate observation index tuples"):
                build()
        else:
            assert build().n == len(rows)

    def test_arrays_frozen(self):
        space = DesignSpace.from_shape((2, 2))
        obs = ObservationSet(
            space=space,
            indices=np.array([[0, 1]]),
            values=np.array([0.5]),
            normalizer=Normalizer(0, 1),
        )
        with pytest.raises(ValueError):
            obs.values[0] = 1.0

    def test_renormalized_round_trips(self):
        space = DesignSpace.from_shape((3,))
        obs = ObservationSet(
            space=space,
            indices=np.array([[0], [1], [2]]),
            values=np.array([0.0, 0.5, 1.0]),
            normalizer=Normalizer(2.0, 6.0),
        )
        wider = obs.renormalized(Normalizer(0.0, 8.0))
        assert wider.values == pytest.approx([0.25, 0.5, 0.75])


class TestDenseTensor:
    def test_flat_index_round_trip_exhaustive(self):
        # the flat data is row-major: offset k holds the cell that
        # np.unravel_index(k) names in the array view
        shape = (17, 13, 9, 5)
        tensor = DenseTensor(shape=shape, data=np.arange(17 * 13 * 9 * 5))
        for offset in range(tensor.data.shape[0]):
            index = np.unravel_index(offset, shape)
            assert tensor.array[index] == offset
            assert offset == int(np.ravel_multi_index(index, shape))

    def test_at_matches_array(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(4, 3, 2))
        tensor = DenseTensor.from_array(array)
        assert tensor.array[2, 1, 0] == array[2, 1, 0]
        assert tensor.array[3, 2, 1] == array[3, 2, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            DenseTensor(shape=(2, 2), data=np.zeros(5))

    def test_bounds(self):
        tensor = DenseTensor(shape=(2, 2), data=np.zeros(4))
        with pytest.raises(IndexError):
            tensor.array[2, 0]
        with pytest.raises(IndexError):
            tensor.array[0, 0, 0]


class TestAxis:
    def test_ordinal_must_increase(self):
        with pytest.raises(SchemaError):
            Axis(name="a", kind="ordinal", values=(2.0, 1.0))

    def test_duplicate_values_rejected(self):
        with pytest.raises(SchemaError):
            Axis(name="a", kind="categorical", values=("x", "x"))

    def test_empty_values_rejected(self):
        with pytest.raises(SchemaError):
            Axis(name="a", kind="ordinal", values=())
