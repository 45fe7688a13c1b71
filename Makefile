# Development shortcuts for the SSRmin reproduction.

PYTHON ?= python

.PHONY: install test bench report demo verify examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Every experiment in full mode; exits 1 if any claim does not reproduce.
bench:
	$(PYTHON) -m repro run $$($(PYTHON) -m repro list) --no-telemetry

report:
	$(PYTHON) -m repro report -o EXPERIMENTS.md

demo:
	$(PYTHON) -m repro demo

verify:
	$(PYTHON) -m repro verify ssrmin -n 3

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
