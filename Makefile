# Convenience targets for the GANA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-quick examples goldens-check clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-quick:
	REPRO_SCALE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/fig1_sample_and_hold.py
	$(PYTHON) examples/switched_cap_filter.py
	$(PYTHON) examples/phased_array.py
	$(PYTHON) examples/custom_primitives_and_training.py
	$(PYTHON) examples/testbench_and_export.py

# Regenerate every committed golden from the code in this tree (models
# trained afresh, no model cache) and fail if any golden byte moved.
# A byte-identical training.json proves bitwise-identical training
# curves, which its rtol test alone cannot.
GOLDENS = tests.core.test_golden tests.spice.test_frontend_golden \
	tests.primitives.test_match_stats_golden tests.gcn.test_pyramid_golden \
	tests.gcn.test_training_golden

goldens-check:
	for module in $(GOLDENS); do \
		PYTHONPATH=src GANA_NO_CACHE=1 $(PYTHON) -m $$module || exit 1; \
	done
	git diff --exit-code -- tests/golden

clean:
	rm -rf .cache benchmarks/results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
