"""The benchmark's workloads: seeded op lists, set-up, ops and output checks.

Every run of a workload executes a fixed-size op list that depends only
on ``--seed`` and ``--seconds``, never on host speed.  The lists are
stratified so that every seed covers the same mix of work:

* ``dse-zoo`` runs whole blocks of (model, precision, buffer) inputs;
  the seed draws each input's batch size and the order.  Batch size
  scales the EDP but leaves the grid, so work per run is identical.
* ``char-configs`` draws, for each of the 24 (scheduler, row policy,
  contention) variants, the same number of distinct (device,
  architecture) pairs, every pair equally often to within one, then
  shuffles.
* ``cli-store`` runs every (command, store state) pair the same number
  of times, in a seeded order.

The spaces are spelled out here rather than read from the program's
registries, so a program change cannot silently change the op mix.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from bench_trace import parse_importtime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"
DRIVER = HERE / "cli_driver.py"

#: A child process that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 120


def sha256(data) -> str:
    """Hex SHA-256 of ``data`` (text is UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_pins() -> Dict[str, Dict[str, str]]:
    """``{workload: {op key: SHA-256 of the canonical output}}``."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of a ``repro`` child: the checkout's sources, a private
    characterization store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


def run_child(argv: List[str], env: Dict[str, str],
              stdout_path: Path, stderr_path: Path) -> Tuple[int, int]:
    """Run ``argv`` to completion; return ``(exit code, peak RSS in KiB)``.

    ``os.wait4`` reports the child's own resource usage, so each op's
    peak memory is its own.  A child that outlives
    :data:`CHILD_TIMEOUT_S` is killed.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=str(ROOT))
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Workload:
    """An op list plus the set-up its ops share.

    ``run`` is the timed op; ``check`` turns its output into
    ``(work units, SHA-256 of the canonical output)`` outside the
    timing.  Set-up writes only under ``workdir``, which its caller
    removes.
    """

    name = ""
    work_unit = ""
    #: Whether ops run in this process (and the tracer wraps them here).
    in_process = True

    def __init__(self, ops: list, workdir: Path) -> None:
        self.ops = ops
        self.workdir = workdir
        #: ``-X importtime`` results of traced ops (cli-store only).
        self.imports: List[Dict[str, float]] = []

    @staticmethod
    def draw(seed: int, seconds: float) -> list:
        """The op list of one run."""
        raise NotImplementedError

    @staticmethod
    def space() -> list:
        """Every op a run can draw, one per pin."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def before_op(self, op) -> None:
        """Untimed preparation of one op."""

    def run(self, op, traced: bool = False):
        raise NotImplementedError

    def check(self, op, output, recorder=None, span=None):
        raise NotImplementedError

    def reset_memos(self) -> None:
        """Make a second pass over the op list start as cold as the first."""

    def peak_rss_kib(self) -> int:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# dse-zoo: exhaustive Algorithm-1 DSE of a whole network
# ----------------------------------------------------------------------

MODELS = ("alexnet", "vgg16", "resnet18", "mobilenetv1", "mobilenetv2",
          "bert-encoder")
PRECISIONS = (1, 2, 4)
BUFFERS_KB = (16, 64, 256)
BATCHES = (1, 2, 3, 4)
#: Nominal seconds of one 18-op block on a 2-vCPU 2.1 GHz Xeon (9 to
#: 17 s measured, with the host's speed).
DSE_BLOCK_S = 11.0


class DseOp(NamedTuple):
    model: str
    batch: int
    precision: int
    buffer_kb: int

    @property
    def key(self) -> str:
        return (f"{self.model}/b{self.batch}/p{self.precision}"
                f"/k{self.buffer_kb}")


def dse_block(block: int) -> List[Tuple[str, int, int]]:
    """The 18 (model, precision, buffer) inputs of block 0, 1 or 2.

    Each model gets every precision and every buffer size once; the
    three blocks partition the 54 combinations.
    """
    return [(model, precision,
             BUFFERS_KB[(row + position + block) % len(BUFFERS_KB)])
            for position, model in enumerate(MODELS)
            for row, precision in enumerate(PRECISIONS)]


def canonical_dse(result) -> str:
    """Each layer's min-EDP architecture, mapping, scheme, tiling and EDP.

    Ties keep the first point in grid order, as the engine's own
    minimum does.
    """
    best: Dict[str, object] = {}
    for point in result.points:
        incumbent = best.get(point.layer_name)
        if incumbent is None or point.edp_js < incumbent.edp_js:
            best[point.layer_name] = point
    lines = []
    for name, point in best.items():
        tiling = point.tiling
        lines.append(
            f"{name} {point.architecture.value} {point.policy.name} "
            f"{point.scheme.value} "
            f"{tiling.th}/{tiling.tw}/{tiling.tj}/{tiling.ti} "
            f"{point.edp_js.hex()}")
    return "\n".join(lines)


class DseZoo(Workload):
    """Each op: ``ExplorationEngine(jobs=1).explore_network`` of a model."""

    name = "dse-zoo"
    work_unit = "design-points"

    @staticmethod
    def draw(seed: int, seconds: float) -> List[DseOp]:
        blocks = min(3, max(1, round(seconds / DSE_BLOCK_S)))
        rng = random.Random(f"dse-zoo/{seed}")
        ops = [DseOp(model, rng.choice(BATCHES), precision, buffer_kb)
               for block in range(blocks)
               for model, precision, buffer_kb in dse_block(block)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def space() -> List[DseOp]:
        return [DseOp(model, batch, precision, buffer_kb)
                for block in range(3)
                for model, precision, buffer_kb in dse_block(block)
                for batch in BATCHES]

    def setup(self) -> None:
        from repro.cnn.tiling import BufferConfig
        from repro.core.engine import ExplorationEngine
        from repro.dram.architecture import DRAMArchitecture
        from repro.dram.characterize import DEFAULT_CHARACTERIZATION_CACHE
        from repro.workloads import registry

        self._buffer_config = BufferConfig
        self._engine = ExplorationEngine
        self._registry = registry
        DEFAULT_CHARACTERIZATION_CACHE.get_many(tuple(DRAMArchitecture))
        # Warm the engine's code paths on a workload outside the space.
        ExplorationEngine(jobs=1).explore_network(
            registry.get_workload("tiny"))

    def run(self, op: DseOp, traced: bool = False):
        buffers = op.buffer_kb * 1024
        network = self._registry.get_workload(
            op.model, batch=op.batch, bytes_per_element=op.precision)
        return self._engine(jobs=1).explore_network(
            network, buffers=self._buffer_config(buffers, buffers, buffers))

    def check(self, op: DseOp, result, recorder=None, span=None):
        return len(result.points), sha256(canonical_dse(result))

    def reset_memos(self) -> None:
        """Empty the engine's process-wide tiling memo.

        Within one pass no input repeats, so every op enumerates its
        tilings cold; a second pass over the same list must start cold
        too.
        """
        from repro.core import engine

        engine._ADMISSIBLE_TILINGS_MEMO.clear()


# ----------------------------------------------------------------------
# char-configs: one cold Fig.-1 characterization
# ----------------------------------------------------------------------

DEVICE_ARCHITECTURES = (
    ("ddr3-1600-2gb-x8", "DDR3"), ("ddr3-1600-2gb-x8", "SALP-1"),
    ("ddr3-1600-2gb-x8", "SALP-2"), ("ddr3-1600-2gb-x8", "SALP-MASA"),
    ("tiny", "DDR3"), ("tiny", "SALP-1"), ("tiny", "SALP-2"),
    ("tiny", "SALP-MASA"),
    ("ddr4-2400", "DDR3"), ("ddr4-2400", "SALP-1"), ("ddr4-2400", "SALP-2"),
    ("ddr4-2400", "SALP-MASA"),
    ("lpddr4-3200", "DDR3"), ("hbm2", "DDR3"),
)
SCHEDULERS = ("fcfs", "fr-fcfs")
ROW_POLICIES = ("open", "closed", "timeout")
#: (label, requestors, arbiter)
CONTENTIONS = (("1req", 1, "round-robin"), ("2req-rr", 2, "round-robin"),
               ("4req-age", 4, "age-based"),
               ("4req-fixed", 4, "fixed-priority"))
#: Nominal seconds of one config per variant (24 configs; 4 to 9 s
#: measured, with the host's speed).
CHAR_ROUND_S = 7.0


class CharOp(NamedTuple):
    device: str
    architecture: str
    scheduler: str
    row_policy: str
    contention: str

    @property
    def key(self) -> str:
        return "/".join(self)


def char_variants() -> List[Tuple[str, str, str]]:
    return [(scheduler, row_policy, label)
            for scheduler in SCHEDULERS for row_policy in ROW_POLICIES
            for label, _requestors, _arbiter in CONTENTIONS]


def canonical_characterization(result) -> str:
    """Each condition's cycles, read nJ and write nJ as ``float.hex``."""
    return "\n".join(
        f"{name} {float(cycles).hex()} {float(read_nj).hex()} "
        f"{float(write_nj).hex()}"
        for name, cycles, read_nj, write_nj in result.rows())


class CharConfigs(Workload):
    """Each op: one cold ``characterize(arch, device=, controller=,
    contention=)``."""

    name = "char-configs"
    work_unit = "configurations"

    @staticmethod
    def draw(seed: int, seconds: float) -> List[CharOp]:
        """Consecutive variants take consecutive runs of a seeded cycle of
        the (device, architecture) pairs.

        On the cycle every pair is drawn equally often, to within one.
        Pairs differ in cost (0.16 to 0.29 s per configuration on
        average), and drawing each variant's pairs independently let a
        run's total work vary twice as much from seed to seed.
        """
        per_variant = min(len(DEVICE_ARCHITECTURES),
                          max(1, round(seconds / CHAR_ROUND_S)))
        rng = random.Random(f"char-configs/{seed}")
        cycle = rng.sample(DEVICE_ARCHITECTURES, len(DEVICE_ARCHITECTURES))
        ops = [CharOp(*cycle[(position * per_variant + offset) % len(cycle)],
                      *variant)
               for position, variant in enumerate(char_variants())
               for offset in range(per_variant)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def space() -> List[CharOp]:
        return [CharOp(device, architecture, *variant)
                for variant in char_variants()
                for device, architecture in DEVICE_ARCHITECTURES]

    def setup(self) -> None:
        from repro.dram.architecture import DRAMArchitecture
        from repro.dram.contention import contention_config
        from repro.dram.device import get_device
        from repro.dram.policies import controller_config

        # The package re-exports a function under the module's name.
        characterization = importlib.import_module("repro.dram.characterize")
        self._characterization = characterization
        contentions = {
            label: contention_config(requestors=requestors, arbiter=arbiter)
            for label, requestors, arbiter in CONTENTIONS}
        self._args = {
            op: (DRAMArchitecture(op.architecture),
                 dict(device=get_device(op.device),
                      controller=controller_config(op.scheduler,
                                                   op.row_policy),
                      contention=contentions[op.contention]))
            for op in self.ops}
        # Warm the kernel and the simulator paths once each.
        tiny = get_device("tiny")
        characterization.characterize(DRAMArchitecture.DDR3, device=tiny)
        characterization.characterize(
            DRAMArchitecture.DDR3, device=tiny,
            controller=controller_config("fcfs", "closed"))

    def run(self, op: CharOp, traced: bool = False):
        architecture, kwargs = self._args[op]
        return self._characterization.characterize(architecture, **kwargs)

    def check(self, op: CharOp, result, recorder=None, span=None):
        return 1, sha256(canonical_characterization(result))


# ----------------------------------------------------------------------
# cli-store: one fresh `python -m repro` process
# ----------------------------------------------------------------------

COMMANDS = (
    ("dse", "--model", "lenet5"),
    ("dse", "--model", "alexnet"),
    ("dse", "--model", "vgg16"),
    ("dse", "--model", "vgg16", "--strategy", "funnel"),
    ("characterize", "--device", "all"),
)
STORE_STATES = ("cold", "warm")
#: Nominal seconds of one round (every command cold and warm).
CLI_ROUND_S = 6.7
#: Fills the warm store: it characterizes every spec the commands load.
FILL_COMMAND = ("characterize", "--device", "all")


class CliOp(NamedTuple):
    command: Tuple[str, ...]
    store: str

    @property
    def key(self) -> str:
        return " ".join(self.command)


class CliStore(Workload):
    """Each op: a fresh interpreter running ``python -m repro <command>``
    against an empty (cold) or filled (warm) ``REPRO_CACHE_DIR``."""

    name = "cli-store"
    work_unit = "commands"
    in_process = False

    @staticmethod
    def draw(seed: int, seconds: float) -> List[CliOp]:
        rounds = max(1, round(seconds / CLI_ROUND_S))
        ops = [CliOp(command, store)
               for _round in range(rounds)
               for command in COMMANDS for store in STORE_STATES]
        random.Random(f"cli-store/{seed}").shuffle(ops)
        return ops

    @staticmethod
    def space() -> List[CliOp]:
        """Cold and warm runs of a command share its pin."""
        return [CliOp(command, "cold") for command in COMMANDS]

    def __init__(self, ops: List[CliOp], workdir: Path) -> None:
        super().__init__(ops, workdir)
        self.warm = workdir / "warm-store"
        self.cold = workdir / "cold-store"
        self.stdout = workdir / "stdout"
        self.stderr = workdir / "stderr"
        self.spans = workdir / "spans.json"
        self.peak_kib = 0

    def setup(self) -> None:
        self.warm.mkdir()
        code, _rss = run_child(
            [sys.executable, "-m", "repro", *FILL_COMMAND],
            child_env(self.warm), self.stdout, self.stderr)
        if code != 0:
            raise RuntimeError(
                f"filling the warm store failed with exit code {code}: "
                f"{self.stderr.read_text(errors='replace')}")

    def run(self, op: CliOp, traced: bool = False):
        store = self.warm if op.store == "warm" else self.cold
        if traced:
            argv = [sys.executable, "-X", "importtime", str(DRIVER),
                    str(self.spans), *op.command]
        else:
            argv = [sys.executable, "-m", "repro", *op.command]
        code, rss_kib = run_child(argv, child_env(store), self.stdout,
                                  self.stderr)
        self.peak_kib = max(self.peak_kib, rss_kib)
        if code != 0:
            raise RuntimeError(
                f"{' '.join(op.command)} exited with {code}: "
                f"{self.stderr.read_text(errors='replace')[-2000:]}")
        return self.stdout.read_bytes()

    def check(self, op: CliOp, stdout: bytes, recorder=None, span=None):
        if recorder is not None:
            dump = json.loads(self.spans.read_text(encoding="utf-8"))
            recorder.adopt(dump["spans"], dump["counters"], span)
            self.imports.append(parse_importtime(
                self.stderr.read_text(errors="replace")))
        return 1, sha256(stdout)

    def before_op(self, op: CliOp) -> None:
        if op.store == "cold":
            shutil.rmtree(self.cold, ignore_errors=True)
            self.cold.mkdir()

    def peak_rss_kib(self) -> int:
        return self.peak_kib


WORKLOADS = {cls.name: cls for cls in (DseZoo, CharConfigs, CliStore)}


def make_workload(name: str, seed: int, seconds: float, workdir: Path):
    """The named workload with its seeded op list."""
    cls = WORKLOADS[name]
    return cls(cls.draw(seed, seconds), workdir)


def import_probe(workdir: Path) -> Dict[str, float]:
    """One fresh ``import repro.cli`` timed with ``-X importtime``."""
    stdout, stderr = workdir / "probe.out", workdir / "probe.err"
    code, _rss = run_child(
        [sys.executable, "-X", "importtime", str(DRIVER),
         str(workdir / "probe-spans.json")],
        child_env(workdir / "probe-store"), stdout, stderr)
    if code != 0:
        raise RuntimeError(f"import probe exited with {code}: "
                           f"{stderr.read_text(errors='replace')}")
    return parse_importtime(stderr.read_text(errors="replace"))
