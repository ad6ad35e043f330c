"""Unit and property tests for the resource algebra."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import ResourceError
from repro.fabric.resources import ResourceKind, ResourceVector, total_resources


def vectors(max_value: int = 10_000):
    counts = st.integers(min_value=0, max_value=max_value)
    return st.builds(ResourceVector, lut=counts, ff=counts, bram=counts, dsp=counts)


class TestConstruction:
    def test_zero_is_all_zero(self):
        assert ResourceVector.zero().is_zero()

    def test_luts_constructor(self):
        vec = ResourceVector.luts(123)
        assert vec.lut == 123
        assert vec.ff == vec.bram == vec.dsp == 0

    def test_negative_component_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(lut=-1)

    def test_non_integer_component_rejected(self):
        with pytest.raises(TypeError):
            ResourceVector(lut=1.5)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"lut": -1}, ResourceError, "negative lut count: -1"),
            ({"dsp": -3}, ResourceError, "negative dsp count: -3"),
            ({"ff": 1.5}, TypeError, "ff count must be int, got float"),
            ({"bram": "2"}, TypeError, "bram count must be int, got str"),
            ({"lut": -1, "ff": 1.5}, ResourceError, "negative lut count"),
        ],
    )
    def test_invalid_component_names_the_first_bad_field(self, fields, error, message):
        with pytest.raises(error, match=message):
            ResourceVector(**fields)

    def test_bool_components_are_accepted_as_before(self):
        vec = ResourceVector(lut=True)
        assert vec.get(ResourceKind.LUT) == 1 and not vec.is_zero()

    def test_pickle_is_pinned(self):
        # FlowCache disk entries and checkpoints hold pickled vectors;
        # the dataclass layout (no __slots__) must not change them.
        assert pickle.dumps(ResourceVector(1, 2, 3, 4), protocol=4) == (
            b"\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.fabric.resources"
            b"\x94\x8c\x0eResourceVector\x94\x93\x94)\x81\x94}\x94(\x8c\x03lut\x94K\x01"
            b"\x8c\x02ff\x94K\x02\x8c\x04bram\x94K\x03\x8c\x03dsp\x94K\x04ub."
        )

    def test_from_mapping(self):
        vec = ResourceVector.from_mapping({"lut": 5, "dsp": 2})
        assert vec.lut == 5 and vec.dsp == 2 and vec.ff == 0

    def test_from_mapping_unknown_key(self):
        with pytest.raises(ResourceError, match="unknown resource kinds"):
            ResourceVector.from_mapping({"slices": 5})


class TestArithmetic:
    def test_addition(self):
        a = ResourceVector(lut=1, ff=2, bram=3, dsp=4)
        b = ResourceVector(lut=10, ff=20, bram=30, dsp=40)
        assert a + b == ResourceVector(lut=11, ff=22, bram=33, dsp=44)

    def test_subtraction(self):
        a = ResourceVector(lut=10, ff=10)
        b = ResourceVector(lut=4, ff=5)
        assert a - b == ResourceVector(lut=6, ff=5)

    def test_subtraction_below_zero_raises(self):
        with pytest.raises(ResourceError):
            ResourceVector(lut=1) - ResourceVector(lut=2)

    def test_integer_scaling(self):
        assert ResourceVector(lut=3, bram=1) * 4 == ResourceVector(lut=12, bram=4)
        assert 4 * ResourceVector(lut=3) == ResourceVector(lut=12)

    def test_scaled_rounds_up(self):
        assert ResourceVector(lut=10).scaled(0.35) == ResourceVector(lut=4)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(lut=10).scaled(-0.5)

    def test_total_resources_empty(self):
        assert total_resources([]) == ResourceVector.zero()

    def test_total_resources(self):
        vecs = [ResourceVector(lut=1), ResourceVector(lut=2, dsp=3)]
        assert total_resources(vecs) == ResourceVector(lut=3, dsp=3)


class TestQueries:
    def test_fits_in(self):
        small = ResourceVector(lut=5, bram=1)
        big = ResourceVector(lut=10, ff=2, bram=1)
        assert small.fits_in(big)
        assert not big.fits_in(small)

    def test_dominates_is_inverse_of_fits_in(self):
        small = ResourceVector(lut=5)
        big = ResourceVector(lut=10)
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_utilization(self):
        demand = ResourceVector(lut=50, bram=1)
        capacity = ResourceVector(lut=100, ff=10, bram=4, dsp=8)
        ratios = demand.utilization(capacity)
        assert ratios[ResourceKind.LUT] == pytest.approx(0.5)
        assert ratios[ResourceKind.BRAM] == pytest.approx(0.25)
        assert ratios[ResourceKind.DSP] == 0.0

    def test_utilization_impossible_demand(self):
        with pytest.raises(ResourceError):
            ResourceVector(dsp=1).utilization(ResourceVector(lut=10))

    def test_max_utilization_is_binding_ratio(self):
        demand = ResourceVector(lut=10, bram=3)
        capacity = ResourceVector(lut=100, bram=4)
        assert demand.max_utilization(capacity) == pytest.approx(0.75)

    def test_shortfall_clamps_at_zero(self):
        demand = ResourceVector(lut=10, bram=5)
        capacity = ResourceVector(lut=100, bram=2)
        assert demand.shortfall(capacity) == ResourceVector(bram=3)

    def test_component_max(self):
        a = ResourceVector(lut=1, bram=9)
        b = ResourceVector(lut=7, dsp=2)
        assert a.component_max(b) == ResourceVector(lut=7, bram=9, dsp=2)

    def test_kind_accessors_agree_with_fields(self):
        vec = ResourceVector(lut=1, ff=2, bram=3, dsp=4)
        assert [vec.get(kind) for kind in ResourceKind] == [1, 2, 3, 4]
        assert list(vec.items()) == list(zip(ResourceKind, [1, 2, 3, 4]))
        assert vec.as_dict() == {"lut": 1, "ff": 2, "bram": 3, "dsp": 4}
        assert not vec.is_zero() and ResourceVector().is_zero()

    @pytest.mark.parametrize("kind", list(ResourceKind))
    def test_fits_in_checks_every_component(self, kind):
        small = ResourceVector(lut=5, ff=5, bram=5, dsp=5)
        bigger = ResourceVector.from_mapping({**small.as_dict(), kind.value: 6})
        assert small.fits_in(bigger) and not bigger.fits_in(small)

    def test_as_dict_round_trip(self):
        vec = ResourceVector(lut=1, ff=2, bram=3, dsp=4)
        assert ResourceVector.from_mapping(vec.as_dict()) == vec

    def test_str_omits_zero_components(self):
        assert "ff" not in str(ResourceVector(lut=3))
        assert str(ResourceVector.zero()).endswith("(0)")


class TestProperties:
    @given(vectors(), vectors())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors(), vectors(), vectors())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(vectors())
    def test_zero_is_identity(self, a):
        assert a + ResourceVector.zero() == a

    @given(vectors(), vectors())
    def test_sum_dominates_parts(self, a, b):
        assert (a + b).dominates(a)
        assert (a + b).dominates(b)

    @given(vectors(), vectors())
    def test_component_max_is_least_upper_bound(self, a, b):
        lub = a.component_max(b)
        assert lub.dominates(a) and lub.dominates(b)
        # Nothing strictly smaller dominates both: check each component.
        for kind in ResourceKind:
            assert lub.get(kind) == max(a.get(kind), b.get(kind))

    @given(vectors(), vectors())
    def test_shortfall_plus_capacity_covers_demand(self, demand, capacity):
        patched = capacity + demand.shortfall(capacity)
        assert demand.fits_in(patched)

    @given(vectors(), st.integers(min_value=0, max_value=20))
    def test_scalar_multiplication_matches_repeated_addition(self, a, n):
        acc = ResourceVector.zero()
        for _ in range(n):
            acc = acc + a
        assert a * n == acc

    @given(vectors())
    def test_fits_in_is_reflexive(self, a):
        assert a.fits_in(a)

    @given(vectors(), vectors(), vectors())
    def test_fits_in_is_transitive(self, a, b, c):
        if a.fits_in(b) and b.fits_in(c):
            assert a.fits_in(c)
