PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: test cov lint fuzz-smoke racecheck fuzz-full

# tier-1: fast suite, excludes `slow` and `fuzz` via pyproject addopts;
# the one correctness gate for every feature
test:
	$(PYTHON) -m pytest

# line-coverage floor for repro.simt + repro.core (stdlib tracer;
# `pip install -e .[cov]` enables the faster pytest-cov path instead)
cov:
	$(PYTHON) tools/coverage_floor.py --list

# unused imports, stdlib `ast` only (pyflakes/ruff are not in the image)
lint:
	$(PYTHON) tools/unused_imports.py

# 60-second differential fuzz pass plus the fuzz-marked test battery,
# which replays the committed corpus; only a failure (with its shrunk
# form) is written back to the corpus, so a clean run leaves it as is
fuzz-smoke:
	$(PYTHON) -m repro fuzz --budget 60s --corpus tests/fuzz/corpus.json
	$(PYTHON) -m pytest tests/fuzz -m fuzz

# racecheck certification: clean tree silent, every mutant flagged
racecheck:
	$(PYTHON) -m repro racecheck

# longer fuzz campaign for local soak testing
fuzz-full:
	$(PYTHON) -m repro fuzz --budget 10m --corpus tests/fuzz/corpus.json
