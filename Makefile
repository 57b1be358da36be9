PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-devices bench-workloads bench-policies \
	bench-strategies bench-contention bench-kernel bench-eval \
	cov cov-core lint

## tier-1 verification: the full unit/property/integration/benchmark suite
test:
	$(PYTHON) -m pytest -x -q

## paper-artifact benchmarks only, with pytest-benchmark timings
## exported to a perf-trajectory file (override the name with
## BENCH_JSON=..., e.g. the CI baseline BENCH_8.json)
BENCH_JSON ?= BENCH_$(shell date -u +%Y%m%dT%H%M%SZ).json
bench:
	$(PYTHON) -m pytest benchmarks/ -q \
		--benchmark-json=$(BENCH_JSON)

## cross-device characterization micro-benchmark (device registry)
bench-devices:
	$(PYTHON) -m pytest benchmarks/test_perf_devices.py -q

## graph-IR lowering overhead gate (<5% vs the direct layer-list DSE)
bench-workloads:
	$(PYTHON) -m pytest benchmarks/test_perf_workloads.py -q

## controller-policy indirection overhead gate (<5% on the AlexNet
## DDR3 characterize+DSE path and the raw controller loop)
bench-policies:
	$(PYTHON) -m pytest benchmarks/test_perf_policies.py -q

## funnel-strategy speedup gate (>=5x wall clock vs exhaustive on the
## VGG-16 DSE at matched optimum, >=10x fewer exact evaluations)
bench-strategies:
	$(PYTHON) -m pytest benchmarks/test_perf_strategies.py -q

## crossbar front-end overhead gate (<5% at N=1 vs the bare
## controller, contended arbitration within 3x)
bench-contention:
	$(PYTHON) -m pytest benchmarks/test_perf_contention.py -q

## vectorized-kernel speed gates (>=10x vs the object simulator on a
## full ddr3-1600-2gb-x8 characterize, batch >=2x vs per-triple kernel
## calls over the whole device registry), at exact result equality
bench-kernel:
	$(PYTHON) -m pytest benchmarks/test_perf_kernel.py -q

## vectorized DSE point-evaluation gates (>=5x vs the scalar per-point
## loop on the full AlexNet/DDR3 exhaustive grid, funnel end-to-end
## wall clock within 10% of scalar), at bit-exact result equality
bench-eval:
	$(PYTHON) -m pytest benchmarks/test_perf_eval.py -q

## the coverage targets need pytest-cov, which CI installs.  Without it
## they print one line and succeed, unless $CI is set (GitHub Actions
## sets it), where a missing plugin must still fail the floor.
COV_GUARD = $(PYTHON) -c "import pytest_cov" 2>/dev/null \
	|| [ -n "$$CI" ] \
	|| { echo "$@: pytest-cov is not installed, coverage skipped"; exit 0; };

## line-coverage floor for the cycle-level DRAM model
cov:
	@$(COV_GUARD) \
	$(PYTHON) -m pytest tests/dram -q --cov=repro.dram \
		--cov-report=term-missing --cov-fail-under=85

## line-coverage floor for the exploration stack (engine, strategies,
## sweeps, reporting)
cov-core:
	@$(COV_GUARD) \
	$(PYTHON) -m pytest tests/core tests/integration -q \
		--cov=repro.core --cov-report=term-missing \
		--cov-fail-under=80

## byte-compile everything and make sure the test suite collects cleanly
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -m pytest --collect-only -q > /dev/null
	@echo "lint OK"
