# Convenience targets for the repro repository.

PYTHON ?= python

.PHONY: install test test-fast lint bench bench-tables calibrate stats profile-report report examples clean all

# Scan roots for the project analyzer (rule catalog in docs/analysis.md).
# tests/ and scripts/ run under the relaxed profile (RPR003/RPR006 off)
# automatically.
ANALYZE_ROOTS ?= src/repro tests scripts

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -m "not slow"

# Static gates: the stdlib-only project analyzer (docs/analysis.md)
# always runs — one cold in-process scan, ~2 s;
# ruff and mypy run when installed (`pip install -e .[lint]`) and are
# skipped with a notice otherwise so `make lint` works in the leanest
# container.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze $(ANALYZE_ROOTS)
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then 		$(PYTHON) -m ruff check src tests; 	else 		echo "lint: ruff not installed, skipping (pip install -e .[lint])"; 	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then 		$(PYTHON) -m mypy src/repro/_types.py src/repro/analysis; 	else 		echo "lint: mypy not installed, skipping (pip install -e .[lint])"; 	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# One observed run: a seeded 60k-edge power-law graph counted on a
# 2-worker shared pool, writing the run's metrics (metrics.jsonl), span
# tree (trace.json, loads in Perfetto) and profiler samples
# (profile.collapsed) in one go.  `stats` and `profile-report` render
# them; the timing benchmark is `python3 benchmarks/e2e/run.py`.
OBS_GRAPH = obs_graph.tsv

$(OBS_GRAPH):
	PYTHONPATH=src $(PYTHON) -m repro.cli generate --n-left 2000 --n-right 3000 --edges 60000 --model powerlaw --seed 7 $(OBS_GRAPH)

metrics.jsonl: $(OBS_GRAPH)
	rm -f metrics.jsonl  # --metrics-out appends
	PYTHONPATH=src $(PYTHON) -m repro.cli --metrics-out metrics.jsonl --trace-out trace.json --profile-out profile.collapsed count $(OBS_GRAPH) --workers 2

trace.json profile.collapsed: metrics.jsonl

stats: metrics.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli stats --from-metrics metrics.jsonl

# Self/total frame table of the observed run's profiler samples.
profile-report: profile.collapsed
	PYTHONPATH=src $(PYTHON) -m repro.cli profile profile.collapsed

# Measure this machine's four engine coefficients (the priority kernel's
# per-edge/per-wedge pair and the stream apply's per-op/per-batch pair)
# and persist them (results/engine_calibration.json, or $$REPRO_CALIBRATION).
calibrate:
	PYTHONPATH=src $(PYTHON) -c "from repro.engine import calibrate; t = calibrate(); print('calibrated ->', t.source)"

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
