"""Flit invariants."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.noc.flit import Flit, FlitKind


def make(kind=FlitKind.SINGLE, seq=0, payload=0):
    return Flit(kind=kind, src=0, dest=1, packet_id=5, seq=seq,
                payload=payload)


class TestFlit:
    def test_single_is_head_and_tail(self):
        flit = make(FlitKind.SINGLE)
        assert flit.is_head and flit.is_tail

    def test_head_is_not_tail(self):
        flit = make(FlitKind.HEAD)
        assert flit.is_head and not flit.is_tail

    def test_tail_is_not_head(self):
        flit = make(FlitKind.TAIL, seq=3)
        assert flit.is_tail and not flit.is_head

    def test_body_is_neither(self):
        flit = make(FlitKind.BODY, seq=1)
        assert not flit.is_head and not flit.is_tail

    def test_head_must_have_seq_zero(self):
        with pytest.raises(ConfigurationError):
            make(FlitKind.HEAD, seq=1)

    def test_payload_32bit_bounds(self):
        make(payload=2 ** 32 - 1)  # max ok
        with pytest.raises(ConfigurationError):
            make(payload=2 ** 32)
        with pytest.raises(ConfigurationError):
            make(payload=-1)

    def test_negative_addresses_rejected(self):
        with pytest.raises(ConfigurationError):
            Flit(kind=FlitKind.SINGLE, src=-1, dest=0, packet_id=0, seq=0)

    def test_str_mentions_route(self):
        assert "0->1" in str(make())

    def test_frozen(self):
        flit = make()
        with pytest.raises(AttributeError):
            flit.dest = 9


HEADS = {FlitKind.HEAD, FlitKind.SINGLE}
TAILS = {FlitKind.TAIL, FlitKind.SINGLE}


def of_kind(kind, payload=7):
    return make(kind, seq=0 if kind in HEADS else 2, payload=payload)


@pytest.mark.parametrize("kind", list(FlitKind))
class TestFlitRecord:
    """The slotted record: head/tail bits derived once from ``kind``,
    invisible to equality, hashing and printing."""

    def test_bits_match_kind(self, kind):
        flit = of_kind(kind)
        assert flit.is_head is (kind in HEADS)
        assert flit.is_tail is (kind in TAILS)

    def test_slotted(self, kind):
        assert not hasattr(of_kind(kind), "__dict__")

    @pytest.mark.parametrize("name", ["kind", "dest", "is_head", "is_tail"])
    def test_setting_an_attribute_raises(self, kind, name):
        flit = of_kind(kind)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(flit, name, getattr(flit, name))

    def test_equality_and_hash_ignore_the_bits(self, kind):
        flit = of_kind(kind)
        twin = of_kind(kind)
        # Forge a twin whose bits disagree with its kind: still equal.
        object.__setattr__(twin, "is_head", not twin.is_head)
        object.__setattr__(twin, "is_tail", not twin.is_tail)
        assert flit == twin and hash(flit) == hash(twin)
        assert flit != of_kind(kind, payload=8)

    def test_repr_and_str_omit_the_bits(self, kind):
        flit = of_kind(kind)
        assert "is_head" not in repr(flit) and "is_tail" not in repr(flit)
        assert repr(flit) == (
            f"Flit(kind={kind!r}, src=0, dest=1, packet_id=5, "
            f"seq={flit.seq}, payload=7)")

    @pytest.mark.parametrize("other", list(FlitKind))
    def test_replace_recomputes_the_bits(self, kind, other):
        flit = dataclasses.replace(of_kind(kind), kind=other,
                                   seq=0 if other in HEADS else 2)
        assert flit.is_head is (other in HEADS)
        assert flit.is_tail is (other in TAILS)

    def test_pickle_round_trips(self, kind):
        flit = of_kind(kind)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(flit, protocol))
            assert clone == flit
            assert (clone.is_head, clone.is_tail) == \
                (flit.is_head, flit.is_tail)
