import pytest

from ctflood.airtime import MODES, air_time, get_mode, slot_length, symbols_on_air

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
