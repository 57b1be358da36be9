"""Tests for the Scenario value: one device, controller and channel."""

import dataclasses
import pickle

import pytest

from repro.dram.contention import (
    DEFAULT_CONTENTION_CONFIG,
    contention_config,
)
from repro.dram.device import TINY_DEVICE, default_device, get_device
from repro.dram.policies import DEFAULT_CONTROLLER_CONFIG, controller_config
from repro.dram.scenario import DEFAULT_SCENARIO, Scenario
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_table2_defaults(self):
        scenario = Scenario()
        assert scenario.device is default_device()
        assert scenario.controller is DEFAULT_CONTROLLER_CONFIG
        assert scenario.contention is DEFAULT_CONTENTION_CONFIG
        assert scenario == DEFAULT_SCENARIO

    @pytest.mark.parametrize("field, value", [
        ("device", "tiny"),
        ("device", None),
        ("controller", "fcfs"),
        ("contention", "2req"),
    ])
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            Scenario(**{field: value})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_SCENARIO.device = TINY_DEVICE


class TestKey:
    def test_equal_scenarios_hash_equal(self):
        first = Scenario(
            get_device("tiny"), controller_config("fr-fcfs", "closed"),
            contention_config(requestors=4, arbiter="age-based"))
        second = Scenario(
            TINY_DEVICE, controller_config("fr-fcfs", "closed"),
            contention_config(4, "age-based"))
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_every_field_is_key_material(self):
        keys = {
            Scenario(TINY_DEVICE),
            Scenario(),
            Scenario(TINY_DEVICE, controller_config(row_policy="closed")),
            Scenario(TINY_DEVICE,
                     contention=contention_config(requestors=2)),
        }
        assert len(keys) == 4

    def test_with_organization_changes_the_key(self):
        base = Scenario(TINY_DEVICE, controller_config("fr-fcfs"))
        wider = base.with_organization(
            TINY_DEVICE.organization.with_subarrays(2))
        assert wider != base
        assert hash(wider) != hash(base)
        assert wider.device.organization.subarrays_per_bank == 2
        assert wider.device.timings is TINY_DEVICE.timings
        assert wider.device.name == TINY_DEVICE.name
        assert wider.controller is base.controller
        assert wider.contention is base.contention

    def test_same_organization_keeps_the_scenario(self):
        base = Scenario(TINY_DEVICE)
        assert base.with_organization(TINY_DEVICE.organization) is base

    def test_pickles_to_an_equal_key(self):
        scenario = Scenario(TINY_DEVICE, controller_config("fr-fcfs"))
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert hash(clone) == hash(scenario)


class TestTag:
    def test_default_is_empty_on_every_device(self):
        assert Scenario().tag == ""
        assert Scenario(get_device("hbm2")).tag == ""

    @pytest.mark.parametrize("controller, contention, tag", [
        (controller_config("fr-fcfs"), DEFAULT_CONTENTION_CONFIG,
         " [fr-fcfs/open]"),
        (DEFAULT_CONTROLLER_CONFIG,
         contention_config(requestors=4, arbiter="fixed-priority"),
         " [4req/fixed-priority]"),
        (controller_config("fr-fcfs", "closed"),
         contention_config(requestors=2),
         " [fr-fcfs/closed, 2req/round-robin]"),
        (DEFAULT_CONTROLLER_CONFIG,
         contention_config(requestors=1, arbiter="age-based"), ""),
    ])
    def test_matches_the_cli_title_suffix(self, controller, contention,
                                          tag):
        assert Scenario(controller=controller,
                        contention=contention).tag == tag


class TestSpec:
    def test_spec_names_every_part(self):
        spec = Scenario(TINY_DEVICE).spec(DEFAULT_SCENARIO.device
                                          .supported_architectures[0])
        assert set(spec) == {"device_name", "organization", "timings",
                             "currents", "architecture", "controller",
                             "contention"}
        assert spec["device_name"] == "tiny"
        assert spec["organization"] == dataclasses.asdict(
            TINY_DEVICE.organization)
