"""Property-based validation of the closed-form counts.

The closed form of :func:`repro.mapping.counts.count_transitions` must
agree exactly with the exhaustive walk of
:func:`repro.mapping.walk.count_transitions_by_walk` for every policy,
run length and start offset.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.dram.device import get_device
from repro.dram.spec import DRAMOrganization
from repro.mapping.catalog import TABLE1_MAPPINGS
from repro.mapping.counts import count_transitions
from repro.mapping.dims import Dim
from repro.mapping.policy import MappingPolicy
from repro.mapping.walk import count_transitions_by_walk

ORG = get_device("tiny").organization

CAPACITY = TABLE1_MAPPINGS[0].capacity(ORG)

policy_indices = st.integers(min_value=0, max_value=5)
run_lengths = st.integers(min_value=0, max_value=300)
starts = st.integers(min_value=0, max_value=CAPACITY - 301)


@given(policy=policy_indices, n=run_lengths, start=starts)
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_walk(policy, n, start):
    chosen = TABLE1_MAPPINGS[policy]
    closed = count_transitions(chosen, ORG, n, start=start)
    walked = count_transitions_by_walk(chosen, ORG, n, start=start)
    assert closed.by_dim == walked.by_dim
    assert closed.initial == walked.initial
    assert closed.total == walked.total


@given(policy=policy_indices, n=st.integers(min_value=1, max_value=300),
       start=starts)
@settings(max_examples=100, deadline=None)
def test_conservation_property(policy, n, start):
    counts = count_transitions(TABLE1_MAPPINGS[policy], ORG, n, start=start)
    assert sum(counts.by_dim.values()) + counts.initial == counts.total


@st.composite
def random_organizations(draw):
    return DRAMOrganization(
        banks_per_chip=draw(st.sampled_from([1, 2, 4])),
        subarrays_per_bank=draw(st.sampled_from([1, 2, 4])),
        rows_per_bank=draw(st.sampled_from([4, 8, 16])),
        columns_per_row=draw(st.sampled_from([8, 16])),
        burst_length=8,
        ranks_per_channel=draw(st.sampled_from([1, 2])),
        channels=draw(st.sampled_from([1, 2])),
    )


@st.composite
def random_policies(draw):
    dims = list(draw(st.permutations(
        [Dim.COLUMN, Dim.BANK, Dim.SUBARRAY, Dim.ROW])))
    return MappingPolicy("random", tuple(dims))


@given(org=random_organizations(), policy=random_policies(),
       n=st.integers(min_value=0, max_value=120))
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_walk_on_random_geometry(org, policy, n):
    if org.rows_per_bank % org.subarrays_per_bank:
        return  # invalid geometry is rejected at construction elsewhere
    n = min(n, policy.capacity(org))
    closed = count_transitions(policy, org, n)
    walked = count_transitions_by_walk(policy, org, n)
    assert closed.by_dim == walked.by_dim


def test_exhaustive_small_grid():
    """Brute-force agreement over a dense grid of (policy, n, start)."""
    for policy, n, start in itertools.product(
            TABLE1_MAPPINGS, (0, 1, 2, 7, 8, 9, 31, 32, 33, 128),
            (0, 1, 8, 127)):
        closed = count_transitions(policy, ORG, n, start=start)
        walked = count_transitions_by_walk(policy, ORG, n, start=start)
        assert closed.by_dim == walked.by_dim, (policy.name, n, start)
