"""A wrong answer is a failed operation: counted, never dropped."""

from perf.reference import Answer, failure, from_response
from perf.worker import PassResult, Workload, judge


def test_a_wrong_cost_a_500_and_a_degraded_answer_each_fail():
    assert failure(Answer(cost=100.0), 100.0) is None
    assert failure(Answer(cost=100.0 * (1 + 1e-12)), 100.0) is None  # last-bit noise
    assert "not the optimum" in failure(Answer(cost=100.1), 100.0)
    assert "not the optimum" in failure(Answer(cost=99.0), 100.0)  # then the reference is wrong
    assert failure(Answer(error="HTTP 500: internal error"), 100.0) == "HTTP 500: internal error"
    assert failure(Answer(cost=100.0, degraded=True), 100.0) == "degraded answer"
    assert failure(Answer(cost=100.0, verified=False), 100.0) == "certificate not verified"
    assert failure(Answer(cost=None), 100.0) is not None
    assert failure(Answer(cost=0.0), None) is None  # a write: nothing to compare


def test_a_response_body_is_judged_as_the_server_sent_it():
    body = {"cost_total": 7.0, "degraded": False, "verified": True, "parameterized": False, "cached": True}
    assert failure(from_response(body), 7.0) is None
    assert failure(from_response({**body, "verified": False}), 7.0) == "certificate not verified"
    # A template hit carries no certificate: unverified there is not a violation.
    assert failure(from_response({**body, "verified": False, "parameterized": True}), 7.0) is None
    assert failure(from_response({**body, "degraded": True}), 7.0) == "degraded answer"


class TwoSlots(Workload):
    slots = ["a", "b"]
    keys = [["a"], ["b0", "b1"]]

    def references(self):
        return {"a": 10.0, "b0": 20.0, "b1": 30.0}


def test_judge_counts_every_operation_of_every_pass():
    good = PassResult([0.1, 0.2], [[Answer(cost=10.0)], [Answer(cost=20.0), Answer(cost=30.0)]], 0.3)
    wrong = PassResult([0.1, 0.2], [[Answer(cost=11.0)], [Answer(cost=20.0), Answer(cost=30.0)]], 0.3)
    # An operation that raised answers once, for every query it was to answer.
    raised = PassResult([0.1, 0.2], [[Answer(cost=10.0)], [Answer(error="boom")]], 0.3,
                        extras=[Answer(error="HTTP 500: no")])
    verdict = judge(TwoSlots(), [good, good])
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (6, 0, True)
    assert verdict["plan_cost_ratio"] == 1.0
    verdict = judge(TwoSlots(), [good, wrong, raised])
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (10, 4, False)
    verdict = judge(TwoSlots(), [wrong])
    assert verdict["plan_cost_ratio"] > 1.0
