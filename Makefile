PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-gates cov cov-core lint

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

## the ratio gates, every one at its own bound and statistic:
##   workloads   graph-IR lowering overhead <5% (paired median)
##   policies    controller dispatch and scenario threading <5% (paired
##               median)
##   strategies  funnel >=5x wall clock and >=10x fewer exact
##               evaluations than exhaustive on the VGG-16 DSE
##   contention  crossbar front end <5% at N=1 (paired median),
##               contended arbitration within 3x
##   kernel      batch kernel >=10x vs the object simulator, batch >=2x
##               vs per-triple kernel calls
##   eval        vector point evaluation >=5x vs the scalar loop,
##               funnel wall clock within 10% of scalar
## each at exact result equality
BENCH_GATES = benchmarks/test_perf_workloads.py \
	benchmarks/test_perf_policies.py benchmarks/test_perf_strategies.py \
	benchmarks/test_perf_contention.py benchmarks/test_perf_kernel.py \
	benchmarks/test_perf_eval.py
bench-gates:
	$(PYTHON) -m pytest $(BENCH_GATES) -q

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

## byte-compile everything and make sure the test suite collects
## cleanly; bytecode goes to a throwaway PYTHONPYCACHEPREFIX, so the
## checkout is left as clean as a fresh clone
lint:
	@prefix=$$(mktemp -d) && trap 'rm -rf "$$prefix"' EXIT && \
	PYTHONPYCACHEPREFIX="$$prefix" \
		$(PYTHON) -m compileall -q src tests benchmarks examples && \
	PYTHONPYCACHEPREFIX="$$prefix" \
		$(PYTHON) -m pytest --collect-only -q > /dev/null
	@echo "lint OK"
