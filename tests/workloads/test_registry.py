"""Tests for the public workload registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    ConvOp,
    Network,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)


def toy_builder(batch=1, bytes_per_element=1):
    net = Network("toy-reg", batch=batch)
    net.add_input("x", 4, 8, 8, bytes_per_element)
    net.add(ConvOp("C", "x", "y", 8, kernel=3, padding=1))
    return net


@pytest.fixture
def registered():
    register_workload("toy-reg", toy_builder)
    try:
        yield "toy-reg"
    finally:
        unregister_workload("toy-reg")


class TestRegistration:
    def test_builtin_zoo_present(self):
        names = workload_names()
        for name in ("alexnet", "vgg16", "lenet5", "resnet18",
                     "mobilenetv1", "mobilenetv2", "bert-encoder",
                     "tiny"):
            assert name in names

    def test_register_and_get(self, registered):
        net = get_workload(registered, batch=3)
        assert net.batch == 3
        assert [op.name for op in net.ops] == ["C"]

    def test_duplicate_rejected_without_replace(self, registered):
        with pytest.raises(WorkloadError, match="already registered"):
            register_workload(registered, toy_builder)
        register_workload(registered, toy_builder, replace=True)

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_workload("no-such-net")

    def test_unregister_unknown(self):
        with pytest.raises(WorkloadError):
            unregister_workload("no-such-net")

    def test_invalid_registrations(self):
        with pytest.raises(WorkloadError):
            register_workload("", toy_builder)
        with pytest.raises(WorkloadError):
            register_workload("x-bad", "not-callable")


class TestDownstreamViews:
    def test_cli_choices_derive_from_registry(self, registered):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["dse", "--model", registered])
        assert args.model == registered

    def test_cli_models_table_lists_registered(self, registered, capsys):
        from repro.cli import main

        assert main(["models"]) == 0
        assert registered in capsys.readouterr().out
