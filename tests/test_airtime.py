import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctflood.airtime import (
    BeaconFrame,
    MODES,
    air_time,
    decode_beacon,
    encode_beacon,
    get_mode,
    slot_length,
    symbols_on_air,
)

PDU = 38


def test_mode_lookup():
    assert get_mode("2m").name == "2M"
    assert get_mode("125K").fec == 8
    with pytest.raises(ValueError):
        get_mode("3M")


@pytest.mark.parametrize(
    "mode,symbols,air_ms",
    [
        ("2M", 376, 0.188),
        ("1M", 368, 0.368),
        ("500K", 1134, 1.134),
        ("125K", 3408, 3.408),
        ("802154", 90, 1.440),
    ],
)
def test_symbol_and_airtime_anchors(mode, symbols, air_ms):
    m = get_mode(mode)
    assert symbols_on_air(m, PDU) == symbols
    assert air_time(m, PDU) * 1e3 == pytest.approx(air_ms, abs=1e-9)


def test_strict_coded_arithmetic():
    assert symbols_on_air(get_mode("125K"), PDU, strict=True) == 3024
    assert symbols_on_air(get_mode("500K"), PDU, strict=True) == 1038
    # uncoded modes are unaffected by the strict switch
    assert symbols_on_air(get_mode("1M"), PDU, strict=True) == 368


@pytest.mark.parametrize(
    "mode,slot_ms",
    [
        ("2M", 0.4016),
        ("1M", 0.5705),
        ("500K", 1.362),
        ("125K", 3.715),
        ("802154", 1.867),
    ],
)
def test_slot_length_anchors(mode, slot_ms):
    got = slot_length(get_mode(mode), PDU) * 1e3
    assert got == pytest.approx(slot_ms, abs=1e-3)  # within one microsecond


def test_symbols_affine_and_increasing():
    for name, m in MODES.items():
        counts = [symbols_on_air(m, n) for n in range(1, 256)]
        assert all(b > a for a, b in zip(counts, counts[1:]))
        diffs = {b - a for a, b in zip(counts, counts[1:])}
        assert len(diffs) == 1  # affine in pdu length
        if name == "802154":
            assert diffs == {2}
        else:
            assert diffs == {8 * m.fec}
    with pytest.raises(ValueError):
        symbols_on_air(get_mode("1M"), 0)
    with pytest.raises(ValueError):
        symbols_on_air(get_mode("1M"), 256)


def test_airtime_mode_ordering():
    for n in (1, 38, 255):
        times = [air_time(get_mode(m), n) for m in ("2M", "1M", "500K", "125K")]
        assert all(a < b for a, b in zip(times, times[1:]))


def test_beacon_layout():
    frame = encode_beacon(0, 0)
    assert len(frame.pdu_bytes) == 38
    assert decode_beacon(frame) == (0, 0, bytes(16))
    frame = encode_beacon(7, 3, b"abc")
    r, s, payload = decode_beacon(frame)
    assert (r, s) == (7, 3)
    assert payload.rstrip(b"\x00") == b"abc"
    # company id and beacon type bytes of the canonical layout
    assert frame.pdu_bytes[13:17] == bytes([0x4C, 0x00, 0x02, 0x15])


@given(
    r=st.integers(0, 0xFFFF),
    s=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=16),
)
@settings(max_examples=100, deadline=None)
def test_beacon_roundtrip(r, s, payload):
    got_r, got_s, got_p = decode_beacon(encode_beacon(r, s, payload))
    assert got_r == r and got_s == s
    assert got_p == payload.ljust(16, b"\x00")


def test_beacon_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_beacon(-1, 0)
    with pytest.raises(ValueError):
        encode_beacon(0, 1 << 16)
    with pytest.raises(ValueError):
        encode_beacon(0, 0, bytes(17))
    with pytest.raises(ValueError):
        decode_beacon(BeaconFrame(bytes(10)))
    good = encode_beacon(1, 2).pdu_bytes
    corrupted = bytes([good[0], good[1] ^ 0xFF]) + good[2:]
    with pytest.raises(ValueError):
        decode_beacon(BeaconFrame(corrupted))
