"""Table II — configuration of the CNN accelerator.

Prints the Table-II configuration from the live objects and times the
buffer-constrained tiling enumeration (Algorithm 1 step 1a).
"""

from repro.accelerator.config import TABLE2_ACCELERATOR
from repro.cnn.tiling import TABLE2_BUFFERS, enumerate_tilings
from repro.core.report import format_table
from repro.units import format_bytes
from repro.workloads import get_workload


def test_table2(benchmark):
    config = TABLE2_ACCELERATOR
    org = config.dram_organization
    rows = [
        ["CNN Processing Array",
         f"{config.mac_rows} x {config.mac_cols} MACs"],
        ["On-chip Buffers",
         f"iB: {format_bytes(TABLE2_BUFFERS.ifms_bytes)}, "
         f"wB: {format_bytes(TABLE2_BUFFERS.wghs_bytes)}, "
         f"oB: {format_bytes(TABLE2_BUFFERS.ofms_bytes)}"],
        ["Memory Controller", "policy = open row, scheduler = FCFS"],
        ["DRAM", org.describe()],
    ]
    print()
    print(format_table(["Module", "Description"], rows,
                       title="Table II -- CNN accelerator configuration"))

    assert config.num_macs == 64
    assert org.banks_per_chip == 8
    assert org.subarrays_per_bank == 8

    conv2 = get_workload("alexnet").lower()[1]
    tilings = benchmark(enumerate_tilings, conv2, TABLE2_BUFFERS)
    assert all(t.fits(conv2, TABLE2_BUFFERS) for t in tilings)
