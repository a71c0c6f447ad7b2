"""The serving workload's job list is a pure function of the seed."""

from collections import Counter

from serving import WORKLOAD, job_list


def _hashes(seed, count=80):
    return [request.spec.content_hash() for request in job_list(WORKLOAD, seed, count)]


def test_same_seed_same_jobs_other_seed_other_jobs():
    assert _hashes(7) == _hashes(7)
    assert _hashes(7) != _hashes(8)
    assert _hashes(7, 40) == _hashes(7, 80)[:40]


def test_every_block_of_four_has_the_fixed_mix():
    requests = job_list(WORKLOAD, 3, 96)
    for client in range(WORKLOAD.clients):
        own = [request for request in requests if request.client == client]
        for start in range(0, len(own), 4):
            kinds = Counter(request.kind for request in own[start:start + 4])
            assert kinds == {"qsup": 2, "shor": 1, "resubmit": 1}


def test_resubmits_repeat_a_fresh_spec_the_same_client_sent_earlier():
    requests = job_list(WORKLOAD, 11, 120)
    fresh_hashes = [r.spec.content_hash() for r in requests if r.kind != "resubmit"]
    assert len(fresh_hashes) == len(set(fresh_hashes))
    for request in requests:
        if request.kind != "resubmit":
            continue
        earlier = {
            r.spec.content_hash() for r in requests[: request.index]
            if r.client == request.client and r.kind != "resubmit"
        }
        assert request.spec.content_hash() in earlier
