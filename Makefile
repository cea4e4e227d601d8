# Convenience targets for the KGAG reproduction.

PYTHON ?= python
PROFILE ?= default

.PHONY: install dev test lint docs-check ckpt-smoke race-smoke stream-smoke par-smoke load-smoke verify analysis-report obs-report bench bench-calibrated bench-smoke serve-smoke examples experiments clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

dev: install
	$(PYTHON) -m pip install pytest pytest-benchmark hypothesis

test:
	$(PYTHON) -m pytest tests/

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.lint src tests benchmarks examples

docs-check:
	PYTHONPATH=src $(PYTHON) tools/check_docs.py

# Train 2 epochs -> kill -> resume -> assert bit-exact vs a straight run.
ckpt-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.core.ckpt_smoke

# Multi-thread stress over the serve/obs objects under the lockset detector.
race-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.race_smoke

# World -> serve -> ingest a cold-item delta -> assert it is recommendable.
stream-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.stream.smoke

# Train at workers=2 -> assert no leaked shm, determinism, metrics parity.
par-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.core.par_smoke

# 2-worker mmap pool -> bounded burst -> assert 429 shedding + parity + no leaks.
load-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve.load_smoke

verify: test lint docs-check ckpt-smoke race-smoke stream-smoke par-smoke load-smoke bench-smoke

analysis-report:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.report

obs-report:
	PYTHONPATH=src $(PYTHON) -m repro.obs.report

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-calibrated:
	REPRO_BENCH_PROFILE=$(PROFILE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Correctness-only pass over every benchmark body (no timing loops).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve.smoke

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/movie_night.py
	$(PYTHON) examples/yelp_outing.py
	$(PYTHON) examples/explain_group_decision.py

experiments:
	$(PYTHON) -m repro.experiments.table1_datasets   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table2_overall    --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table3_ablation   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table4_aggregator --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig4_margin_depth --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig5_beta_dim     --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig6_case_study   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.ext_cold_items    --profile $(PROFILE)

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
