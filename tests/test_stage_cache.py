"""The per-process caches of the canonical and flop pipelines return what a
fresh computation returns, and nothing a caller does to a result reaches them."""

import json

import pytest

from qcflop import canonical as can
from qcflop import cli

from helpers import filled


def frame_stages(frame):
    return {
        "delta_i": can.delta_i(frame),
        "term_log_delta": can.term_log_delta(frame),
        "term_c_minus_one": can.term_c_minus_one(frame),
        "connection_form": filled(can.connection_form(frame)),
        "eps_factors": can._eps_factors(frame),
        "m_inverse_column": can._m_inverse_column(frame),
        "first_order": filled(can.first_order(frame)),
    }


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cached_stages_equal_a_fresh_frame(r):
    shared = can.frame_for(r)
    assert can.frame_for(r) is shared and can.build_spectrum(r) is not shared
    first = frame_stages(shared)
    again = frame_stages(shared)  # read from the cache
    fresh = frame_stages(can.build_spectrum(r))
    for name in fresh:
        assert first[name] == fresh[name], name
        assert again[name] == fresh[name], name


def test_genus_one_memo_equals_a_fresh_computation(monkeypatch):
    memo = {r: can.genus_one_form(r) for r in (1, 2, 3, 4)}
    for r, value in memo.items():
        assert can.genus_one_form(r) is value
        assert can.frame_for(r).stages["genus_one"] is value
    monkeypatch.setattr(can, "_FRAMES", {})
    for r, value in memo.items():
        assert can.genus_one_form(r) == value
        assert can.genus_one_form(r) == (can.genus_one_expected(r), value[1])


def test_mutating_a_result_leaves_the_cache_alone():
    frame = can.frame_for(2)
    conn = can.connection_form(frame)
    want = filled(conn)
    # the cached matrix has no item assignment and no row but row 0, a tuple
    with pytest.raises(TypeError):
        conn[0, 1] = conn[0, 1] * 5
    with pytest.raises(TypeError):
        conn[1]
    with pytest.raises(TypeError):
        conn.row[1] = conn.row[1] * 5
    assert filled(can.connection_form(frame)) == want

    deltas = can.delta_i(frame)
    want_deltas = list(deltas)
    deltas.reverse()
    deltas.pop()
    assert can.delta_i(frame) == want_deltas


@pytest.mark.parametrize("r", [1, 2, 3])
def test_branch_signs_apply_to_the_cached_base(r):
    # a gauge of the cached base is a fresh matrix, and leaves the base alone
    frame = can.frame_for(r)
    default = can.connection_form(frame)
    want = filled(default)
    flipped = can._branch(default, [1] * (r + 1), (0, 1))
    signs = [1] * r + [-1]
    signed = can._branch(default, signs)
    for i in range(r + 1):
        for j in range(r + 1):
            if i != j:
                assert not default[i, j].is_zero()  # so every sign shows
            flip = -1 if {i, j} == {0, 1} else 1
            assert flipped[i][j] == default[i, j] * flip
            sign = -1 if (i == r) != (j == r) else 1
            assert signed[i][j] == default[i, j] * sign
    fresh = can.build_spectrum(r)
    assert signed == can._branch(can.connection_form(fresh), signs)
    assert flipped == can._branch(can.connection_form(fresh), [1] * (r + 1), (0, 1))
    assert filled(can.connection_form(frame)) == want


def test_verify_all_twice_in_one_process(capsys):
    reports = []
    for _ in range(2):
        assert cli.main(["verify", "all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("seconds")
        reports.append(payload)
    assert reports[0] == reports[1]
    assert reports[0]["all_pass"]
