"""Public workload registry.

Workloads register as *builders* — callables ``(batch=1,
bytes_per_element=1, **kwargs) -> Network`` — under a unique name.
Everything downstream derives from this one table: the ``repro
models`` listing, the CLI ``--model`` choices, and any test or example
that wants a throw-away workload without editing library code:

>>> from repro.workloads import Network, register_workload
>>> from repro.workloads.ops import ConvOp
>>> def my_net(batch=1, bytes_per_element=1):
...     net = Network("my-net", batch=batch)
...     _ = net.add_input("x", 4, 8, 8, bytes_per_element)
...     _ = net.add(ConvOp("C", "x", "y", 8, kernel=3))
...     return net
>>> register_workload("my-net", my_net)
>>> get_workload("my-net").ops[0].name
'C'
>>> unregister_workload("my-net")
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import WorkloadError
from .network import Network
from . import zoo

WorkloadBuilder = Callable[..., Network]

#: Name -> builder.  Mutate only through :func:`register_workload` /
#: :func:`unregister_workload`.
WORKLOAD_REGISTRY: Dict[str, WorkloadBuilder] = {}


def register_workload(
    name: str,
    builder: WorkloadBuilder,
    replace: bool = False,
) -> None:
    """Register a workload builder under ``name``.

    Parameters
    ----------
    name:
        Registry key (also the CLI ``--model`` value).
    builder:
        Callable accepting at least ``batch`` and ``bytes_per_element``
        keyword arguments and returning a :class:`Network`.
    replace:
        Allow overwriting an existing registration (default: a
        duplicate name raises :class:`repro.errors.WorkloadError`).
    """
    if not name or not isinstance(name, str):
        raise WorkloadError(
            f"workload name must be a non-empty string, got {name!r}")
    if not callable(builder):
        raise WorkloadError(
            f"workload builder for {name!r} must be callable, "
            f"got {builder!r}")
    if name in WORKLOAD_REGISTRY and not replace:
        raise WorkloadError(
            f"workload {name!r} is already registered; pass "
            f"replace=True to overwrite")
    WORKLOAD_REGISTRY[name] = builder


def unregister_workload(name: str) -> None:
    """Remove a registration (tests and downstream plug-ins)."""
    if name not in WORKLOAD_REGISTRY:
        raise WorkloadError(f"workload {name!r} is not registered")
    del WORKLOAD_REGISTRY[name]


def workload_names() -> List[str]:
    """Registered names, sorted."""
    return sorted(WORKLOAD_REGISTRY)


def get_workload(name: str, **kwargs) -> Network:
    """Instantiate a registered workload graph by name."""
    try:
        builder = WORKLOAD_REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: "
            f"{workload_names()}") from None
    return builder(**kwargs)


# The built-in zoo.  ``tiny`` predates the batch parameter; its
# builder accepts one uniformly like every other registrant.
for _name, _builder in (
    ("alexnet", zoo.alexnet),
    ("vgg16", zoo.vgg16),
    ("lenet5", zoo.lenet5),
    ("resnet18", zoo.resnet18),
    ("mobilenetv1", zoo.mobilenet_v1),
    ("mobilenetv2", zoo.mobilenet_v2),
    ("bert-encoder", zoo.bert_encoder),
    ("tiny", zoo.tiny),
):
    register_workload(_name, _builder)
del _name, _builder
