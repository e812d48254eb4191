"""Unit tests for the policy-based admission layer.

Covers the deterministic token bucket (burst, refill, clamping), the
request classifier, the reject/degrade policies (including the resume
exemption and per-class starvation fairness) and the declarative
:class:`AdmissionSpec` factory.
"""

import pytest

from repro.errors import ServiceError
from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.server.admission import (
    DEGRADED_FPS,
    INTERACTIVE,
    RESUME,
    STANDARD,
    AdmissionPolicy,
    AdmissionSpec,
    TokenBucket,
    classify_request,
)
from repro.service.protocol import ConnectRequest


def request(quality_fps=None, resume_offset=1, name="client0"):
    client = ProcessId(20, name)
    return ConnectRequest(
        client=client,
        movie="feature",
        video_endpoint=Endpoint(client.node, 8000),
        session=f"s.{name}",
        quality_fps=quality_fps,
        resume_offset=resume_offset,
    )


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_bucket_starts_full_and_allows_the_burst():
    bucket = TokenBucket(capacity=3, rate_per_s=0.5)
    assert [bucket.take(0.0) for _ in range(3)] == [True, True, True]
    assert bucket.take(0.0) is False


def test_bucket_refills_at_rate_and_fractions_accumulate():
    bucket = TokenBucket(capacity=3, rate_per_s=0.5)
    for _ in range(3):
        bucket.take(0.0)
    # 1 s at 0.5 tokens/s is only half a token.
    assert bucket.take(1.0) is False
    # ...but another second tops the fraction up to a whole one.
    assert bucket.take(2.0) is True
    assert bucket.take(2.0) is False


def test_bucket_never_exceeds_capacity():
    bucket = TokenBucket(capacity=2, rate_per_s=10.0)
    assert bucket.available(100.0) == pytest.approx(2.0)
    assert [bucket.take(100.0) for _ in range(3)] == [True, True, False]


def test_bucket_zero_rate_never_refills():
    bucket = TokenBucket(capacity=1, rate_per_s=0.0)
    assert bucket.take(0.0) is True
    assert bucket.take(1e9) is False


def test_bucket_failed_take_leaves_tokens_intact():
    bucket = TokenBucket(capacity=1, rate_per_s=0.0)
    bucket.take(0.0)
    before = bucket.available(0.0)
    bucket.take(0.0, amount=1.0)
    assert bucket.available(0.0) == pytest.approx(before)


def test_bucket_rejects_bad_parameters():
    with pytest.raises(ServiceError):
        TokenBucket(capacity=0, rate_per_s=1.0)
    with pytest.raises(ServiceError):
        TokenBucket(capacity=1, rate_per_s=-1.0)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_classify_request_covers_the_three_classes():
    assert classify_request(request()) == STANDARD
    assert classify_request(request(quality_fps=12)) == INTERACTIVE
    assert classify_request(request(resume_offset=500)) == RESUME
    # Resume wins even for a low-rate client: fault recovery first.
    assert classify_request(request(quality_fps=12, resume_offset=500)) == RESUME


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_reject_policy_rejects_over_budget_then_recovers():
    policy = AdmissionPolicy("reject", rate_per_s=1.0, burst=2.0)
    assert policy.decide(0.0, request()).action == "admit"
    assert policy.decide(0.0, request()).action == "admit"
    rejected = policy.decide(0.0, request())
    assert rejected.action == "reject"
    assert not rejected.admitted
    # The client's 1 s retry cadence meets the refilled bucket.
    assert policy.decide(1.0, request()).action == "admit"


def test_resume_traffic_is_never_throttled():
    policy = AdmissionPolicy("reject", rate_per_s=0.0, burst=1.0)
    policy.decide(0.0, request())  # drain the standard bucket
    for _ in range(10):
        decision = policy.decide(0.0, request(resume_offset=300))
        assert decision.action == "admit"
        assert decision.tclass == RESUME


def test_per_class_buckets_prevent_starvation():
    # A standard-class flash crowd must not consume the interactive
    # class's budget (and vice versa): separate buckets per class.
    policy = AdmissionPolicy("reject", rate_per_s=0.0, burst=1.0)
    assert policy.decide(0.0, request()).action == "admit"
    assert policy.decide(0.0, request()).action == "reject"
    assert policy.decide(0.0, request(quality_fps=12)).action == "admit"
    assert policy.decide(0.0, request(quality_fps=12)).action == "reject"
    # And the exhaustion of both metered classes leaves resume alone.
    assert policy.decide(0.0, request(resume_offset=99)).action == "admit"


def test_degrade_policy_grants_reduced_quality_over_budget():
    policy = AdmissionPolicy("degrade", rate_per_s=0.0, burst=1.0)
    assert policy.decide(0.0, request()).action == "admit"
    decision = policy.decide(0.0, request())
    assert decision.action == "degrade"
    assert decision.admitted  # degraded viewers still get a picture
    assert decision.quality_fps == DEGRADED_FPS == 12


def test_degrade_policy_never_raises_a_clients_own_request():
    # A software decoder already asking for 8 fps must not be "degraded"
    # *up* to 12: the grant is min(degraded, requested).
    policy = AdmissionPolicy("degrade", rate_per_s=0.0, burst=1.0)
    policy.decide(0.0, request(quality_fps=8))  # drain interactive
    decision = policy.decide(0.0, request(quality_fps=8))
    assert decision.action == "degrade"
    assert decision.quality_fps == 8


# ----------------------------------------------------------------------
# AdmissionSpec
# ----------------------------------------------------------------------
def test_spec_open_builds_no_policy():
    assert AdmissionSpec(mode="open").build() is None


def test_spec_builds_the_named_policies():
    reject = AdmissionSpec(mode="reject", rate_per_s=2.0, burst=4.0).build()
    assert reject.mode == "reject"
    assert reject.buckets[STANDARD].capacity == pytest.approx(4.0)
    assert reject.buckets[STANDARD].rate_per_s == pytest.approx(2.0)

    degrade = AdmissionSpec(mode="degrade").build()
    assert degrade.mode == "degrade"
    assert degrade.buckets[INTERACTIVE].capacity == pytest.approx(3.0)


def test_spec_rejects_unknown_mode():
    with pytest.raises(ServiceError):
        AdmissionSpec(mode="best-effort").build()


def test_spec_is_hashable_and_comparable():
    a = AdmissionSpec(mode="degrade", rate_per_s=0.5)
    b = AdmissionSpec(mode="degrade", rate_per_s=0.5)
    assert a == b and hash(a) == hash(b)
    assert a != AdmissionSpec(mode="reject", rate_per_s=0.5)
