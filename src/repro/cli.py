"""Command-line interface for the DRMap reproduction.

Usage::

    python -m repro characterize [--arch DDR3] [--device NAME|all]
                                 [--scheduler fr-fcfs] [--row-policy closed]
                                 [--requestors N] [--arbiter NAME]
                                 [--analytical]
    python -m repro edp --model alexnet --layer CONV2 [--mapping 3]
                        [--device NAME] [--batch B]
                        [--bytes-per-element N]
                        [--scheduler NAME] [--row-policy NAME]
                        [--requestors N] [--arbiter NAME]
    python -m repro dse --model alexnet [--arch SALP-MASA] [--layer FC6]
                        [--device NAME]
                        [--batch B] [--bytes-per-element N]
                        [--scheduler NAME] [--row-policy NAME]
                        [--requestors N] [--arbiter NAME]
                        [--strategy NAME] [--funnel-topk PCT]
    python -m repro traffic --model alexnet [--device NAME] [--batch B]
                            [--bytes-per-element N]
    python -m repro models [--detail] [--model NAME]
    python -m repro devices
    python -m repro policies
    python -m repro arbiters
    python -m repro strategies
    python -m repro cache {stats,clear} [--cache-dir DIR]

Each subcommand prints the same plain-text tables the benchmark
harness produces, so the paper's experiments are reachable without
writing any Python.

``--model`` accepts any workload in the
:mod:`repro.workloads` registry — the graph zoo (``alexnet`` ...
``resnet18``, ``mobilenetv2``, ``bert-encoder``) plus anything added
via :func:`repro.workloads.register_workload`.  Graphs lower to the
paper's 7-dim loop nests before exploration, so ``dse`` runs
unchanged on CNNs and transformer blocks alike; ``models --detail``
shows the graph itself (per-op lowering and feature-map hand-off
residency).  ``--batch`` / ``--bytes-per-element`` instantiate the
workload at a given batch size and precision.

``--device`` selects a registered DRAM device profile (see
``repro devices``); the default is the paper's ``ddr3-1600-2gb-x8``.
``--arch`` is validated against the device's capability set; unknown
``--arch``/``--device`` values exit with status 2 and the list of
valid names.  ``characterize --device all`` prints the per-condition
cost tables for every registered device.

``--scheduler`` / ``--row-policy`` select the memory-controller
configuration (see ``repro policies``); the defaults are the paper's
Table-II controller, ``fcfs`` and ``open``.  Non-default
configurations are flagged in the table titles.

``--requestors`` / ``--arbiter`` select the channel-contention
configuration (see ``repro arbiters``): how many tagged request
streams share the channel and which arbitration policy interleaves
them through the crossbar front end.  The default single requestor
drives the bare controller, command-for-command identical to the
pre-contention CLI; contended runs are flagged in the table titles and
``characterize`` additionally prints the per-requestor accounting
table.

``characterize``, ``edp`` and ``dse`` share this option group
(``--device``, ``--scheduler``, ``--row-policy``, ``--requestors``,
``--arbiter``), which selects one :class:`repro.dram.scenario.Scenario`.
DRAM traffic volumes depend on none of it, so ``traffic`` takes only
``--device``, which adds per-device burst counts.

The scenario also picks the characterization backend, so no flag
does: the vectorized kernel where it applies (default controller,
uncontended channel), the cycle-level simulator everywhere else, with
identical numbers where both apply.  ``characterize --analytical``
prints the closed-form model's costs instead; that model is
contention-blind, so it refuses a non-default channel.

``dse`` runs on :mod:`repro.core.engine`:

``--strategy NAME``
    Search strategy over the grid (see ``repro strategies``).  The
    default ``exhaustive`` evaluates every point and its output is
    byte-identical to the pre-strategy CLI; ``funnel`` prunes with
    the closed-form analytical cost model and exactly re-evaluates
    only the top ``--funnel-topk`` percent per layer (a flag
    ``exhaustive`` refuses).  Funnel runs are tagged in the table
    title and followed by a one-line evaluation-count summary.

The whole network is explored in one engine call, and each table row
is that exploration's minimum for one layer.

Invalid input — an unknown name, a non-positive count, a layer the
workload lacks, a configuration the library rejects — exits with
status 2 and a one-line ``repro: error:`` message, never a traceback.

Characterizations are persisted to an on-disk store (default
``~/.cache/repro``, override with ``--cache-dir`` or the
``REPRO_CACHE_DIR`` environment variable) keyed by a hash of the full
scenario and architecture spec, so repeated CLI runs warm-start
instead of re-simulating; ``--no-disk-cache`` disables it and ``repro
cache {stats,clear}`` inspects or empties it.  Results are identical
with and without the store.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .cnn.scheduling import ALL_SCHEMES, CONCRETE_SCHEMES, ReuseScheme
from .cnn.tiling import enumerate_tilings
from .cnn.traffic import layer_traffic
from .core.dse import explore_layer
from .core.report import format_table
from .dram.architecture import DRAMArchitecture
from .dram.characterize import characterize_all
from .dram.contention import arbiter_names, contention_config
from .dram.device import DEVICE_REGISTRY, default_device, get_device
from .dram.policies import (
    controller_config,
    row_policy_names,
    scheduler_names,
)
from .dram.scenario import Scenario
from .errors import ConfigurationError, ReproError
from .mapping.catalog import TABLE1_MAPPINGS, mapping_by_index
from .units import format_bytes
from .workloads import get_workload, handoff_summary, workload_names


def _architecture(name: str) -> DRAMArchitecture:
    try:
        return DRAMArchitecture(name)
    except ValueError:
        choices = ", ".join(a.value for a in DRAMArchitecture)
        raise ConfigurationError(
            f"unknown architecture {name!r}; choose from: {choices}"
        ) from None


def _scenario(args: argparse.Namespace) -> Scenario:
    """The :class:`Scenario` the scenario option group selects.

    ``--device`` defaults to the paper's device; ``characterize
    --device all`` also starts from it and swaps in each registered
    device itself.
    """
    name = args.device
    return Scenario(
        default_device() if name in (None, "all") else get_device(name),
        controller_config(args.scheduler, args.row_policy),
        contention_config(args.requestors, args.arbiter))


def _configure_store(args: argparse.Namespace):
    """Attach (or detach) the on-disk store per the cache flags.

    Returns the attached
    :class:`repro.dram.store.CharacterizationStore` or ``None`` when
    ``--no-disk-cache`` was given.  The store only affects wall-clock
    time; command output is identical either way.
    """
    from .dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
    from .dram.store import CharacterizationStore

    store = None
    if not getattr(args, "no_disk_cache", False):
        store = CharacterizationStore(getattr(args, "cache_dir", None))
    DEFAULT_CHARACTERIZATION_CACHE.attach_store(store)
    return store


def _strategy_options(args: argparse.Namespace):
    """``(strategy, options)`` from the dse flags."""
    strategy = getattr(args, "strategy", "exhaustive")
    topk = getattr(args, "funnel_topk", None)
    options = {}
    if topk is None:
        return strategy, options
    if strategy != "funnel":
        raise ConfigurationError(
            f"--funnel-topk applies to the funnel strategy only, so "
            f"under {strategy} it would change nothing; drop "
            "--funnel-topk")
    if not 0.0 < topk <= 100.0:
        raise ConfigurationError(
            f"--funnel-topk must be in (0, 100], got {topk}")
    options["top_fraction"] = topk / 100.0
    return strategy, options


def _workload(args: argparse.Namespace):
    """Instantiate the requested workload graph from the registry."""
    batch = getattr(args, "batch", 1)
    bytes_per_element = getattr(args, "bytes_per_element", 1)
    if batch <= 0:
        raise ConfigurationError(f"--batch must be positive, got {batch}")
    if bytes_per_element <= 0:
        raise ConfigurationError(
            f"--bytes-per-element must be positive, "
            f"got {bytes_per_element}")
    return get_workload(
        args.model, batch=batch, bytes_per_element=bytes_per_element)


def _layers(args: argparse.Namespace):
    """The lowered 7-dim loop nests of the requested workload."""
    layers = _workload(args).lower()
    layer = getattr(args, "layer", None)
    if layer is None:
        return layers
    matching = [l for l in layers if l.name == layer]
    if not matching:
        names = ", ".join(l.name for l in layers)
        raise ConfigurationError(
            f"model {args.model!r} has no layer {layer!r}; "
            f"layers: {names}")
    return matching


def cmd_characterize(args: argparse.Namespace) -> int:
    """Print the Fig.-1 per-condition costs."""
    from .dram.analytical import analytical_characterization

    _configure_store(args)
    requested = _architecture(args.arch) if args.arch else None
    scenario = _scenario(args)
    if args.analytical and not scenario.contention.is_default:
        raise ConfigurationError(
            f"--analytical models the uncontended channel only; drop "
            f"--requestors/--arbiter (got {scenario.contention.label})")
    if args.device == "all":
        devices = list(DEVICE_REGISTRY)
        if requested is not None:
            # Characterize the devices that support the architecture
            # rather than aborting the whole sweep on the first
            # commodity-only profile.
            devices = [d for d in devices if d.supports(requested)]
            if not devices:
                raise ConfigurationError(
                    f"no registered device supports architecture "
                    f"{requested.value!r}")
    else:
        devices = [scenario.device]
        if requested is not None:
            devices[0].require_architecture(requested)
    rows = []
    contended = []
    for profile in devices:
        here = dataclasses.replace(scenario, device=profile)
        if requested is not None:
            architectures = (requested,)
        else:
            architectures = profile.supported_architectures
        if args.analytical:
            results = {
                architecture: analytical_characterization(
                    architecture, here)
                for architecture in architectures
            }
        else:
            results = characterize_all(here, architectures)
        for architecture in architectures:
            result = results[architecture]
            for name, cycles, read_nj, write_nj in result.rows():
                rows.append([profile.name, architecture.value, name,
                             f"{cycles:.1f}", f"{read_nj:.2f}",
                             f"{write_nj:.2f}"])
            if result.requestor_stats:
                contended.append((profile, architecture, result))
    print(format_table(
        ["device", "architecture", "condition", "cycles", "read nJ",
         "write nJ"],
        rows, title="Per-access DRAM costs (paper Fig. 1)"
                    + scenario.tag))
    for device, architecture, result in contended:
        from .core.report import requestor_stats_table

        print()
        print(requestor_stats_table(
            result.requestor_stats,
            title=f"Per-requestor accounting on {architecture.value} "
                  f"({device.name}, steady-state streams)"
                  + scenario.tag))
    return 0


def cmd_edp(args: argparse.Namespace) -> int:
    """Per-mapping EDP for one layer (best tiling each)."""
    _configure_store(args)
    architecture = _architecture(args.arch)
    scenario = _scenario(args)
    scenario.device.require_architecture(architecture)
    scheme = ReuseScheme(args.scheme)
    policies = ([mapping_by_index(args.mapping)] if args.mapping
                else list(TABLE1_MAPPINGS))
    for layer in _layers(args):
        result = explore_layer(
            layer, architectures=(architecture,), schemes=(scheme,),
            policies=policies, scenario=scenario)
        rows = []
        for policy in policies:
            best = result.best(policy=policy)
            rows.append([
                policy.name,
                f"{best.result.energy_nj * 1e-6:.4f}",
                f"{best.result.latency_ns * 1e-6:.4f}",
                f"{best.edp_js:.3e}",
            ])
        print(format_table(
            ["mapping", "energy [mJ]", "latency [ms]", "EDP [J*s]"],
            rows,
            title=f"{layer.name} on {architecture.value} "
                  f"({scenario.device.name}), "
                  f"{scheme.value} (best tiling per mapping)"
                  + scenario.tag))
        print()
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    """Algorithm 1: min-EDP design point per layer."""
    from .core.engine import ExplorationEngine

    _configure_store(args)
    architecture = _architecture(args.arch)
    scenario = _scenario(args)
    scenario.device.require_architecture(architecture)
    strategy, options = _strategy_options(args)
    layers = _layers(args)
    result = ExplorationEngine().explore_network(
        layers, architectures=(architecture,), scenario=scenario,
        strategy=strategy, strategy_options=options)
    rows = []
    total = 0.0
    for layer in layers:
        best = result.best(layer_name=layer.name)
        total += best.edp_js
        tiling = best.tiling
        rows.append([
            layer.name, best.policy.name,
            best.result.resolved_scheme.value,
            f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti}",
            f"{best.edp_js:.3e}",
        ])
    rows.append(["TOTAL", "", "", "", f"{total:.3e}"])
    # The default exhaustive strategy keeps the title byte-identical
    # to the pre-strategy CLI; funnel runs are tagged and summarized.
    strategy_suffix = "" if strategy == "exhaustive" \
        else f" [strategy: {strategy}]"
    print(format_table(
        ["layer", "mapping", "schedule", "tiling Th/Tw/Tj/Ti",
         "min EDP [J*s]"],
        rows, title=f"Algorithm 1 on {architecture.value} "
                    f"({scenario.device.name})" + scenario.tag
                    + strategy_suffix))
    if strategy != "exhaustive":
        line = (f"strategy {strategy}: {result.evaluated_points}/"
                f"{result.total_points} design points evaluated exactly")
        if result.scored_points:
            line += f", {result.scored_points} scored analytically"
        print(line)
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    """DRAM traffic per scheduling scheme for each layer.

    Each layer is reported under the tiling its row names: the first
    buffer-maximal tiling in grid order (``enumerate_tilings(layer)[0]``,
    the one with the smallest Th), not the min-EDP one.  Byte counts
    are device-independent; with ``--device`` each cell also shows the
    burst count on that device's interface (bytes per burst differ
    across generations).
    """
    device = get_device(args.device) if args.device else None
    rows = []
    for layer in _layers(args):
        tiling = enumerate_tilings(layer)[0]
        row = [layer.name,
               f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti}"]
        for scheme in CONCRETE_SCHEMES:
            traffic = layer_traffic(layer, tiling, scheme)
            cell = format_bytes(traffic.total_bytes)
            if device is not None:
                bursts = device.organization.accesses_for_bytes(
                    traffic.total_bytes)
                cell += f" ({bursts} bursts)"
            row.append(cell)
        rows.append(row)
    title = f"DRAM traffic of {args.model}"
    if device is not None:
        title += (f" on {device.name} "
                  f"({device.organization.bytes_per_burst} B/burst)")
    print(format_table(
        ["layer", "tiling Th/Tw/Tj/Ti"]
        + [s.value for s in CONCRETE_SCHEMES],
        rows, title=title))
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """List the registered workloads; ``--detail`` shows the graphs."""
    from .core.report import handoff_table

    names = workload_names()
    if args.model is not None:
        if args.model not in names:
            raise ConfigurationError(
                f"unknown model {args.model!r}; choose from: "
                f"{', '.join(names)}")
        names = [args.model]
    rows = []
    networks = {}
    for name in names:
        network = get_workload(name)
        networks[name] = network
        summary = handoff_summary(network)
        rows.append([
            name,
            str(len(network.ops)),
            str(len(network.lower())),
            str(len(summary.skip_edges)),
            format_bytes(network.weight_bytes),
        ])
    print(format_table(
        ["model", "ops", "loop nests", "skip edges", "weights"],
        rows, title="Registered workloads"))
    if not args.detail:
        return 0
    for name in names:
        network = networks[name]
        print()
        print(format_table(
            ["op", "kind", "inputs", "output (CxHxW)", "lowers to"],
            network.describe_rows(),
            title=f"{name}: operator graph (batch={network.batch})"))
        print()
        print(handoff_table(handoff_summary(network)))
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    """List the memory-controller policies."""
    from .core.report import policies_table

    del args
    print(policies_table())
    return 0


def cmd_arbiters(args: argparse.Namespace) -> int:
    """List the channel arbiters."""
    from .core.report import arbiters_table

    del args
    print(arbiters_table())
    return 0


def cmd_strategies(args: argparse.Namespace) -> int:
    """List the DSE search strategies."""
    from .core.strategies import STRATEGIES

    del args
    rows = [[name, summary] for name, summary in STRATEGIES.items()]
    print(format_table(
        ["strategy", "purpose"], rows,
        title="Registered DSE search strategies"))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or empty the on-disk characterization store."""
    from .dram.store import CharacterizationStore
    from .units import format_bytes as _fmt

    store = CharacterizationStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached characterization(s) from "
              f"{store.root}")
        return 0
    stats = store.stats()
    rows = [
        ["root", stats.root],
        ["entries", str(stats.entries)],
        ["size", _fmt(stats.total_bytes)],
    ]
    print(format_table(
        ["field", "value"], rows,
        title="On-disk characterization store"))
    return 0


def cmd_devices(args: argparse.Namespace) -> int:
    """List the registered DRAM device profiles."""
    del args
    rows = []
    for profile in DEVICE_REGISTRY:
        org = profile.organization
        geometry = (f"{org.channels}ch x {org.banks_per_chip}ba x "
                    f"{org.subarrays_per_bank}sa, "
                    f"x{org.device_width_bits}")
        rows.append([
            profile.name,
            str(profile.data_rate_mts),
            geometry,
            format_bytes(profile.capacity_bytes),
            "/".join(a.value for a in profile.supported_architectures),
        ])
    print(format_table(
        ["device", "MT/s", "geometry", "capacity", "architectures"],
        rows, title="Registered DRAM device profiles"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRMap reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_scenario_arguments(
        subparser: argparse.ArgumentParser,
        device_help: str = "device profile name (default: "
                           "ddr3-1600-2gb-x8)",
    ) -> None:
        """The option group :func:`_scenario` reads.

        ``--device``, the ``--scheduler``/``--row-policy`` controller
        pair and the ``--requestors``/``--arbiter`` channel pair.
        Scheduler, row-policy and arbiter choices are the names of
        their config enums.
        """
        subparser.add_argument("--device", default=None,
                               help=device_help)
        subparser.add_argument(
            "--scheduler", default="fcfs",
            choices=scheduler_names(),
            help="controller scheduling policy (default: fcfs, the "
                 "paper's Table-II controller)")
        subparser.add_argument(
            "--row-policy", dest="row_policy", default="open",
            choices=row_policy_names(),
            help="row-buffer policy (default: open, the paper's "
                 "Table-II policy)")
        subparser.add_argument(
            "--requestors", type=int, default=1,
            help="request streams sharing the channel (default: 1, "
                 "the uncontended pre-crossbar path)")
        subparser.add_argument(
            "--arbiter", default="round-robin",
            choices=arbiter_names(),
            help="crossbar arbitration policy for contended runs "
                 "(default: round-robin; ignored at --requestors 1)")

    def add_cache_arguments(subparser: argparse.ArgumentParser) -> None:
        """``--cache-dir``/``--no-disk-cache`` pair."""
        subparser.add_argument(
            "--cache-dir", dest="cache_dir", default=None,
            help="on-disk characterization store directory (default: "
                 "$REPRO_CACHE_DIR or ~/.cache/repro)")
        subparser.add_argument(
            "--no-disk-cache", dest="no_disk_cache",
            action="store_true",
            help="do not read or write the on-disk characterization "
                 "store")

    p_char = subparsers.add_parser(
        "characterize", help="print the Fig.-1 per-condition costs")
    p_char.add_argument("--arch", default=None,
                        help="one architecture (default: every "
                             "architecture the device supports)")
    p_char.add_argument(
        "--analytical", action="store_true",
        help="print the closed-form analytical model's costs instead "
             "of measured ones (uncontended channel only)")
    add_scenario_arguments(
        p_char, "device profile name, or 'all' for every registered "
                "device (default: ddr3-1600-2gb-x8)")
    add_cache_arguments(p_char)
    p_char.set_defaults(func=cmd_characterize)

    def add_workload_arguments(subparser: argparse.ArgumentParser
                               ) -> None:
        """``--model``/``--batch``/``--bytes-per-element`` trio.

        Choices derive from the live workload registry, so
        ``register_workload`` additions appear without touching the
        CLI.
        """
        subparser.add_argument("--model", default="alexnet",
                               choices=workload_names())
        subparser.add_argument("--layer", default=None)
        subparser.add_argument(
            "--batch", type=int, default=1,
            help="workload batch size B (default: 1)")
        subparser.add_argument(
            "--bytes-per-element", type=int, default=1,
            help="datum size in bytes: 1=int8, 2=fp16, 4=fp32 "
                 "(default: 1)")

    p_edp = subparsers.add_parser(
        "edp", help="per-mapping EDP for one layer")
    add_workload_arguments(p_edp)
    p_edp.add_argument("--arch", default="DDR3")
    p_edp.add_argument("--scheme", default="adaptive-reuse",
                       choices=[s.value for s in ALL_SCHEMES])
    p_edp.add_argument("--mapping", type=int, default=None,
                       choices=range(1, 7),
                       help="Table-I index (default: all six)")
    add_scenario_arguments(p_edp)
    add_cache_arguments(p_edp)
    p_edp.set_defaults(func=cmd_edp)

    p_dse = subparsers.add_parser(
        "dse", help="Algorithm 1: min-EDP design point per layer")
    add_workload_arguments(p_dse)
    p_dse.add_argument("--arch", default="DDR3")
    add_scenario_arguments(p_dse)
    add_cache_arguments(p_dse)
    from .core.strategies import DEFAULT_FUNNEL_TOP_FRACTION, STRATEGIES

    p_dse.add_argument(
        "--strategy", default="exhaustive",
        choices=tuple(STRATEGIES),
        help="search strategy over the design grid (default: "
             "exhaustive, the paper's Algorithm 1; see 'repro "
             "strategies')")
    p_dse.add_argument(
        "--funnel-topk", dest="funnel_topk", type=float, default=None,
        help="funnel strategy only: percentage of each layer's grid "
             "re-evaluated exactly after analytical pruning (default: "
             f"{DEFAULT_FUNNEL_TOP_FRACTION * 100:g})")
    p_dse.set_defaults(func=cmd_dse)

    p_traffic = subparsers.add_parser(
        "traffic", help="DRAM traffic per scheduling scheme")
    add_workload_arguments(p_traffic)
    p_traffic.add_argument("--device", default=None,
                           help="device profile name: adds per-device "
                                "burst counts")
    p_traffic.set_defaults(func=cmd_traffic)

    p_models = subparsers.add_parser(
        "models", help="list registered workloads")
    p_models.add_argument(
        "--detail", action="store_true",
        help="print each workload's operator graph and feature-map "
             "hand-off residency analysis")
    p_models.add_argument(
        "--model", default=None,
        help="restrict the listing to one workload")
    p_models.set_defaults(func=cmd_models)

    p_devices = subparsers.add_parser(
        "devices", help="list registered DRAM device profiles")
    p_devices.set_defaults(func=cmd_devices)

    p_policies = subparsers.add_parser(
        "policies", help="list registered memory-controller policies")
    p_policies.set_defaults(func=cmd_policies)

    p_arbiters = subparsers.add_parser(
        "arbiters", help="list registered channel arbiters")
    p_arbiters.set_defaults(func=cmd_arbiters)

    p_strategies = subparsers.add_parser(
        "strategies", help="list registered DSE search strategies")
    p_strategies.set_defaults(func=cmd_strategies)

    p_cache = subparsers.add_parser(
        "cache", help="inspect or empty the on-disk characterization "
                      "store")
    p_cache.add_argument("action", choices=("stats", "clear"),
                         help="'stats' prints the store contents; "
                              "'clear' deletes every entry")
    p_cache.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="store directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Every library error (:class:`~repro.errors.ReproError`) — unknown
    ``--device``/``--arch`` names, an architecture outside the device's
    capability set, a workload that fits no tiling or no DRAM — exits
    with status 2 (argparse's usage-error convention) and a one-line
    message; unknown names come with the valid choices.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, a pager) closed the pipe; park
        # stdout on devnull so the interpreter's shutdown flush does
        # not print a second traceback, and exit with SIGPIPE's
        # conventional status.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
