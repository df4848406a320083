import json
import sys
import textwrap

import numpy as np
import pytest

import emcurate as em
from emcurate import ExternalJudge, FallbackJudge, Preference, RuleBasedJudge
from emcurate.errors import ProtocolError
from emcurate.expert import rle_decode, rle_encode

ECHO_FIRST = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps({"id": req["id"], "preference": "first"}), flush=True)
""")

BAD_JSON = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        print("this is not json", flush=True)
""")

NON_OBJECT_REPLY = textwrap.dedent("""
    import sys
    reply = sys.argv[1]
    for line in sys.stdin:
        print(reply, flush=True)
""")

SLOW = textwrap.dedent("""
    import sys, time
    for line in sys.stdin:
        time.sleep(5)
""")

SLOW_ON_SLOW_IDS = textwrap.dedent("""
    import json, sys, time
    for line in sys.stdin:
        req = json.loads(line)
        if req["id"].startswith("slow/"):
            time.sleep(5)
        print(json.dumps({"id": req["id"], "preference": "first"}), flush=True)
""")


def judge_command(script: str) -> list[str]:
    return [sys.executable, "-u", "-c", script]


def masks(run_cfg):
    vol = em.VoxelGrid(dims=(16, 16, 16), spacing=(1, 1, 1),
                       data=np.zeros((16, 16, 16), dtype=np.float32))
    a = np.zeros((16, 16, 16), bool)
    a[4:8, 4:8, 4:8] = True
    b = np.roll(a, 5, axis=0)
    return vol, a, b


def test_rle_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        overlay = rng.random((7, 5)) < 0.4
        encoded = rle_encode(overlay)
        decoded = rle_decode(encoded, width=7, height=5)
        assert np.array_equal(decoded, overlay)


def test_rle_known_encoding():
    # 4x4 overlay: row-major over z rows, x fastest
    overlay = np.zeros((4, 4), bool)
    overlay[1, 0] = overlay[2, 0] = True   # first row: 0 1 1 0
    overlay[:, 2] = True                   # third row all true
    assert rle_encode(overlay) == "0:1 1:2 0:5 1:4 0:4"


def test_rle_rejects_wrong_length():
    with pytest.raises(ProtocolError):
        rle_decode("0:3", width=2, height=2)


def test_echo_judge_round_trip(run_cfg):
    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(judge_command(ECHO_FIRST), run_cfg.priors, timeout_s=10)
    try:
        verdict = judge.compare("case", 6, vol, a, b)
        assert verdict.preference is Preference.FIRST
        verdict = judge.compare("case", 6, vol, b, a)
        assert verdict.preference is Preference.FIRST  # echo double always says first
    finally:
        judge.close()


def test_malformed_response_raises_protocol_error(run_cfg):
    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(judge_command(BAD_JSON), run_cfg.priors, timeout_s=10)
    try:
        with pytest.raises(ProtocolError):
            judge.compare("case", 6, vol, a, b)
    finally:
        judge.close()


def rule_decided_pair():
    """A volume and a (good, displaced) pair the rule judge prefers first."""
    vol = em.VoxelGrid(dims=(64, 64, 64), spacing=(1, 1, 1),
                       data=np.zeros((64, 64, 64), dtype=np.float32))
    good = np.zeros((64, 64, 64), bool)
    good[31:35, 30:32, 9:55] = True
    return vol, good, np.roll(good, 20, axis=0)


def test_fallback_engages_on_protocol_error(run_cfg):
    vol, good, displaced = rule_decided_pair()
    primary = ExternalJudge(judge_command(BAD_JSON), run_cfg.priors, timeout_s=10)
    fallback = FallbackJudge(primary, RuleBasedJudge(run_cfg.priors))
    try:
        verdict = fallback.compare("case", 6, vol, good, displaced)
        assert verdict.preference is Preference.FIRST  # rule judge decided
        assert fallback.protocol_failures == 1
    finally:
        primary.close()


@pytest.mark.parametrize("reply", ["[1]", '"x"', "null", "3"])
def test_non_object_reply_falls_back(run_cfg, reply):
    """A reply that is JSON but not an object is malformed like any other."""
    vol, good, displaced = rule_decided_pair()
    primary = ExternalJudge(judge_command(NON_OBJECT_REPLY) + [reply], run_cfg.priors,
                            timeout_s=10)
    fallback = FallbackJudge(primary, RuleBasedJudge(run_cfg.priors))
    try:
        with pytest.raises(ProtocolError):
            primary.compare("case", 6, vol, good, displaced)
        verdict = fallback.compare("case", 6, vol, good, displaced)
        assert verdict.preference is Preference.FIRST  # rule judge decided
        assert fallback.protocol_failures == 1
    finally:
        primary.close()


def test_timeout_yields_protocol_tie(run_cfg):
    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(judge_command(SLOW), run_cfg.priors, timeout_s=0.3)
    try:
        verdict = judge.compare("case", 6, vol, a, b)
        assert verdict.preference is Preference.TIE
        assert verdict.protocol_issue is True
    finally:
        judge.close()


def test_late_reply_cannot_answer_a_later_request(run_cfg):
    """A timed-out child is replaced, so its late reply is never read as the
    answer to the requests that follow."""
    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(judge_command(SLOW_ON_SLOW_IDS), run_cfg.priors, timeout_s=2.0)
    try:
        verdicts = [judge.compare(case_id, 6, vol, a, b)
                    for case_id in ("slow", "fast", "fast", "fast", "fast")]
    finally:
        judge.close()
    assert [v.preference for v in verdicts] == [Preference.TIE] + [Preference.FIRST] * 4
    assert [v.protocol_issue for v in verdicts] == [True] + [False] * 4


def test_request_payload_shape(run_cfg, monkeypatch):
    """The request carries the prior's prompt and both overlays as RLE."""
    captured = {}

    class FakeProc:
        def __init__(self):
            self.stdin = self
            self.stdout = self

        def write(self, line):
            captured["line"] = line

        def flush(self):
            pass

        def readline(self):
            req = json.loads(captured["line"])
            return json.dumps({"id": req["id"], "preference": "tie"}) + "\n"

        def poll(self):
            return None

    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(["unused"], run_cfg.priors, timeout_s=5)
    judge._proc = FakeProc()
    verdict = judge.compare("case_7", 6, vol, a, b)
    assert verdict.preference is Preference.TIE
    req = json.loads(captured["line"])
    assert set(req) == {"id", "structure", "prompt", "overlay_a_rle",
                        "overlay_b_rle", "width", "height"}
    assert req["structure"] == "aorta"
    assert req["prompt"] == run_cfg.priors[6].prompt
    assert req["width"] == 16 and req["height"] == 16
    assert np.array_equal(rle_decode(req["overlay_a_rle"], 16, 16), a.any(axis=1))
