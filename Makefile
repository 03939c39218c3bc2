# Convenience targets for the repro repository.

PYTHON ?= python

# Baseline payload for the bench-check regression gate (override with
# e.g. `make bench-check BASELINE=artifacts/BENCH_parallel.json`).
BASELINE ?= BENCH_baseline.json
TOLERANCE ?= 0.15

.PHONY: install test test-fast lint bench bench-quick bench-check bench-tables calibrate stats profile-report report examples clean all

# Scan roots for the project analyzer (rules RPR001-RPR012, see
# docs/analysis.md).  tests/ and scripts/ run under the relaxed profile
# (RPR003/RPR006 off) automatically.
ANALYZE_ROOTS ?= src/repro tests scripts

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -m "not slow"

# Static gates: the stdlib-only project analyzer (rules RPR001-RPR012,
# see docs/analysis.md) always runs — one cold in-process scan, ~2 s;
# ruff and mypy run when installed (`pip install -e .[lint]`) and are
# skipped with a notice otherwise so `make lint` works in the leanest
# container.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze $(ANALYZE_ROOTS)
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then 		$(PYTHON) -m ruff check src tests; 	else 		echo "lint: ruff not installed, skipping (pip install -e .[lint])"; 	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then 		$(PYTHON) -m mypy src/repro/_types.py src/repro/analysis; 	else 		echo "lint: mypy not installed, skipping (pip install -e .[lint])"; 	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Machine-readable warm shared-pool dispatch overhead (BENCH_parallel.json)
# plus the observability stream (metrics.jsonl + trace.json), the
# profiler's collapsed stacks (profile.collapsed — render with
# `repro-butterfly profile profile.collapsed`), and one appended
# BENCH_history.jsonl record.  Run with REPRO_OBS=0 to pin the obs
# no-op path for overhead comparisons.
bench-quick:
	PYTHONPATH=src $(PYTHON) -m repro.bench.parallel_bench --out BENCH_parallel.json --metrics-out metrics.jsonl --trace-out trace.json --history BENCH_history.jsonl --profile-out profile.collapsed

# Render the bench-quick profiler artifact as a self/total frame table.
profile-report:
	PYTHONPATH=src $(PYTHON) -m repro.cli profile profile.collapsed

# Perf-regression gate: compare the current BENCH_parallel.json against
# $(BASELINE); exits non-zero on a >= $(TOLERANCE) regression.  CI runs
# it with --warn-only (advisory on the noisy 1-CPU shared runner); the
# exit-code path itself is unit-tested in tests/test_bench_history.py.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --compare $(BASELINE) --current BENCH_parallel.json --tolerance $(TOLERANCE)

# Measure this machine's ns/op coefficients for the engine planner and
# persist them (results/engine_calibration.json, or $$REPRO_CALIBRATION).
calibrate:
	PYTHONPATH=src $(PYTHON) -c "from repro.engine import calibrate; t = calibrate(); print('calibrated ->', t.source)"

stats:
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --from-metrics metrics.jsonl

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s -q

report:
	$(PYTHON) -m repro.bench.report --out evaluation_report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

all: install test bench
