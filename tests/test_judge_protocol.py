import json
import os
import signal
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import emcurate as em
from emcurate import ExternalJudge, Preference, RuleBasedJudge
from emcurate.errors import ProtocolError
from emcurate.expert import _REPLY_LIMIT, rle_decode, rle_encode

# Each child script below runs after these lines, which append the child's pid
# to the file named by its first argument.
PID_LINE = textwrap.dedent("""
    import os, sys
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
""")

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
    reply = sys.argv[2]
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


# the first child prints a stray line before its first reply; every child
# answers "second"
STRAY_LINE = textwrap.dedent("""
    import json, sys
    stray = open(sys.argv[1]).read().count("\\n") == 1
    for line in sys.stdin:
        if stray:
            print("debug: thinking", flush=True)
            stray = False
        print(json.dumps({"id": json.loads(line)["id"], "preference": "second"}), flush=True)
""")

# the first child answers with another request's id; every child answers
# "second"
WRONG_ID_FIRST = textwrap.dedent("""
    import json, sys
    wrong = open(sys.argv[1]).read().count("\\n") == 1
    for line in sys.stdin:
        rid = "other/0/0" if wrong else json.loads(line)["id"]
        print(json.dumps({"id": rid, "preference": "second"}), flush=True)
""")

# answers every request with one line that is not UTF-8
NON_UTF8_REPLY = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        sys.stdout.buffer.write(b'{"id": "\\xff\\xfe"}\\n')
        sys.stdout.buffer.flush()
""")

# answers its first request with argv[2] bytes and no newline, then sleeps
OVERLONG_REPLY = textwrap.dedent("""
    import sys, time
    sys.stdin.readline()
    sys.stdout.buffer.write(b"x" * int(sys.argv[2]))
    sys.stdout.buffer.flush()
    time.sleep(30)
""")

# stops reading its input, then says so by creating <pid file>.closed
CLOSES_STDIN = textwrap.dedent("""
    import os, sys, time
    os.close(0)
    open(sys.argv[1] + ".closed", "w").close()
    time.sleep(30)
""")


def started_children(judge: ExternalJudge) -> list[int]:
    """The pids of the children that a judge made by ``external_judge`` started."""
    return [int(pid) for pid in Path(judge.command[4]).read_text().split()]


@pytest.fixture
def external_judge(tmp_path, run_cfg):
    """Makes external judges that run a child script with its own pid file.
    At the end of the test each judge is closed, and every child it started,
    restarted ones included, must have exited by then."""
    judges = []

    def make(script, *args, timeout_s=10.0):
        pid_file = tmp_path / f"pids_{len(judges)}"
        judge = ExternalJudge([sys.executable, "-u", "-c", PID_LINE + script, str(pid_file),
                               *args], RuleBasedJudge(run_cfg.priors), timeout_s)
        judges.append(judge)
        return judge

    yield make
    for judge in judges:
        judge.close()
        pids = started_children(judge)
        assert pids
        running = []  # each is killed, so a failing test leaves no child behind
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                running.append(pid)
            except ProcessLookupError:
                pass
        assert not running, f"children {running} outlived close()"


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


def test_echo_judge_round_trip(run_cfg, external_judge):
    vol, a, b = masks(run_cfg)
    judge = external_judge(ECHO_FIRST)
    verdict = judge.compare("case", 6, vol, a, b)
    assert verdict.preference is Preference.FIRST
    assert verdict.score_first is None and verdict.score_second is None
    verdict = judge.compare("case", 6, vol, b, a)
    assert verdict.preference is Preference.FIRST  # echo double always says first


def test_malformed_response_falls_back_and_ends_the_child(run_cfg, external_judge):
    """Each malformed reply is answered by the rule judge, and the child that
    sent it is replaced."""
    vol, a, b = masks(run_cfg)
    judge = external_judge(BAD_JSON)
    verdicts = [judge.compare("case", 6, vol, a, b) for _ in range(2)]
    assert verdicts == [RuleBasedJudge(run_cfg.priors).compare("case", 6, vol, a, b)] * 2
    assert judge.protocol_failures == 2
    assert len(started_children(judge)) == 2


def rule_decided_pair():
    """A volume and a (good, displaced) pair the rule judge prefers first."""
    vol = em.VoxelGrid(dims=(64, 64, 64), spacing=(1, 1, 1),
                       data=np.zeros((64, 64, 64), dtype=np.float32))
    good = np.zeros((64, 64, 64), bool)
    good[31:35, 30:32, 9:55] = True
    return vol, good, np.roll(good, 20, axis=0)


def test_fallback_engages_on_protocol_error(external_judge):
    vol, good, displaced = rule_decided_pair()
    judge = external_judge(BAD_JSON)
    verdict = judge.compare("case", 6, vol, good, displaced)
    assert verdict.preference is Preference.FIRST  # rule judge decided
    assert judge.protocol_failures == 1


@pytest.mark.parametrize("reply", ["[1]", '"x"', "null", "3"])
def test_non_object_reply_falls_back(external_judge, reply):
    """A reply that is JSON but not an object is malformed like any other."""
    vol, good, displaced = rule_decided_pair()
    judge = external_judge(NON_OBJECT_REPLY, reply)
    verdict = judge.compare("case", 6, vol, good, displaced)
    assert verdict.preference is Preference.FIRST  # rule judge decided
    assert judge.protocol_failures == 1


@pytest.mark.parametrize("script, args", [(NON_UTF8_REPLY, ()),
                                          (OVERLONG_REPLY, (str(_REPLY_LIMIT + 1),))],
                         ids=["non_utf8", "overlong"])
def test_undecodable_reply_falls_back_without_a_traceback(external_judge, capfd, script, args):
    """A reply that is not UTF-8, or that has no newline within the reply
    limit, is malformed: the rule judge answers, the failure is counted and
    the child is ended, and no thread dies with a traceback."""
    vol, good, displaced = rule_decided_pair()
    judge = external_judge(script, *args, timeout_s=5.0)
    verdict = judge.compare("case", 6, vol, good, displaced)
    assert verdict == judge.fallback.compare("case", 6, vol, good, displaced)
    assert judge.protocol_failures == 1
    assert judge._proc is None
    for pid in started_children(judge):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    err = capfd.readouterr().err
    assert "Traceback" not in err and "Exception in thread" not in err


def test_child_that_stops_reading_falls_back(external_judge):
    """A request that cannot be written is answered by the rule judge, and
    the child that stopped reading is ended without an error."""
    vol, good, displaced = rule_decided_pair()
    judge = external_judge(CLOSES_STDIN)
    judge._ensure_proc()
    closed = Path(judge.command[4] + ".closed")
    deadline = time.monotonic() + 10
    while not closed.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert closed.exists()
    verdict = judge.compare("case", 6, vol, good, displaced)
    assert verdict.preference is Preference.FIRST  # rule judge decided
    assert judge.protocol_failures == 1


def test_timeout_yields_protocol_tie(run_cfg, external_judge):
    vol, a, b = masks(run_cfg)
    judge = external_judge(SLOW, timeout_s=0.3)
    verdict = judge.compare("case", 6, vol, a, b)
    assert verdict.preference is Preference.TIE
    assert verdict.protocol_issue is True
    assert verdict.score_first is None and verdict.score_second is None
    assert judge.protocol_failures == 0


def test_late_reply_cannot_answer_a_later_request(run_cfg, external_judge):
    """A timed-out child is replaced, so its late reply is never read as the
    answer to the requests that follow."""
    vol, a, b = masks(run_cfg)
    judge = external_judge(SLOW_ON_SLOW_IDS, timeout_s=2.0)
    verdicts = [judge.compare(case_id, 6, vol, a, b)
                for case_id in ("slow", "fast", "fast", "fast", "fast")]
    assert [v.preference for v in verdicts] == [Preference.TIE] + [Preference.FIRST] * 4
    assert [v.protocol_issue for v in verdicts] == [True] + [False] * 4
    assert len(started_children(judge)) == 2


def test_stray_line_cannot_answer_a_later_request(run_cfg, external_judge):
    """A child whose reply is malformed is replaced, so the reply it sends
    after a stray line is never read as the answer to the next request."""
    vol, a, b = masks(run_cfg)
    judge = external_judge(STRAY_LINE)
    verdicts = [judge.compare(f"case_{i}", 6, vol, a, b) for i in range(5)]
    assert verdicts[0] == RuleBasedJudge(run_cfg.priors).compare("case_0", 6, vol, a, b)
    assert [v.preference for v in verdicts[1:]] == [Preference.SECOND] * 4
    assert all(v.score_first is None for v in verdicts[1:])
    assert judge.protocol_failures == 1
    assert len(started_children(judge)) == 2


def test_reply_with_another_id_falls_back_and_ends_the_child(external_judge, caplog):
    """A well-formed reply to another request's id is malformed: the rule
    judge answers, the failure is counted, the child is ended and the next
    request goes to a fresh child."""
    vol, good, displaced = rule_decided_pair()
    judge = external_judge(WRONG_ID_FIRST)
    with caplog.at_level("WARNING", logger="emcurate.expert"):
        verdict = judge.compare("case", 6, vol, good, displaced)
    assert "response id 'other/0/0' != 'case/6/1'" in caplog.text
    assert verdict == judge.fallback.compare("case", 6, vol, good, displaced)
    assert verdict.preference is Preference.FIRST  # not the child's "second"
    assert judge.protocol_failures == 1
    assert judge._proc is None
    [first] = started_children(judge)
    with pytest.raises(ProcessLookupError):
        os.kill(first, 0)
    assert judge.compare("case", 6, vol, good, displaced).preference is Preference.SECOND
    assert judge.protocol_failures == 1
    assert len(started_children(judge)) == 2


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

        def readline(self, limit):
            req = json.loads(captured["line"])
            return (json.dumps({"id": req["id"], "preference": "tie"}) + "\n").encode()

        def poll(self):
            return None

    vol, a, b = masks(run_cfg)
    judge = ExternalJudge(["unused"], RuleBasedJudge(run_cfg.priors), 5.0)
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
